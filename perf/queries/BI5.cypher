MATCH (t:Tag)<-[:HasTag]-(m:Post)-[:HasCreator]->(p:Person) WHERE t.name = 'Tag1' RETURN p.id AS person, count(m) AS cnt ORDER BY cnt DESC, person ASC LIMIT 20

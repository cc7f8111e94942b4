MATCH (m:Post)-[:HasCreator]->(p:Person) WHERE m.creationDate > 12000 RETURN p.id AS person, count(m) AS msgs ORDER BY msgs DESC, person ASC LIMIT 20

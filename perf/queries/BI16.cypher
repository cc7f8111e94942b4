MATCH (p:Person)-[:HasInterest]->(t:Tag), (m:Comment)-[:HasCreator]->(p) WHERE t.name = 'Tag4' RETURN p.id AS person, count(m) AS msgs ORDER BY msgs DESC, person ASC LIMIT 20

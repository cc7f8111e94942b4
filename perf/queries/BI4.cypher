MATCH (fo:Forum)-[:ContainerOf]->(m:Post)-[:HasCreator]->(p:Person) RETURN p.id AS person, count(m) AS posts ORDER BY posts DESC, person ASC LIMIT 20

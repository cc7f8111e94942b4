MATCH (m:Post)-[:HasCreator]->(p:Person), (c:Comment)-[:ReplyOf]->(m) WHERE m.length > 100 RETURN p.id AS person, count(c) AS replies ORDER BY replies DESC, person ASC LIMIT 20

MATCH (m:Post)-[:HasTag]->(t:Tag), (c:Comment)-[:ReplyOf]->(m), (c)-[:HasTag]->(rt:Tag) WHERE t.name = 'Tag3' RETURN rt.name AS related, count(c) AS cnt ORDER BY cnt DESC, related ASC LIMIT 20

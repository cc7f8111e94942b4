MATCH (fo:Forum)-[:ContainerOf]->(m:Post), (c:Comment)-[:ReplyOf]->(m) RETURN fo.title AS forum, count(c) AS threads ORDER BY threads DESC, forum ASC LIMIT 20

MATCH (p:Person)-[:Knows]->(f:Person), (post:Post)-[:HasCreator]->(f), (post)-[:HasTag]->(t:Tag) WHERE p.id = $id RETURN t.name AS tag, count(*) AS postCount ORDER BY postCount DESC, tag ASC LIMIT 10

MATCH (p:Person)-[:Knows]->(f:Person), (liker:Person)-[:Likes]->(m:Post), (m)-[:HasCreator]->(p) WHERE p.id = $id RETURN liker.id AS liker, count(m) AS likes ORDER BY likes DESC, liker ASC LIMIT 20

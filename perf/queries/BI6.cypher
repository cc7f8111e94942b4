MATCH (m:Post)-[:HasTag]->(t:Tag), (liker:Person)-[:Likes]->(m) WHERE t.name = 'Tag2' RETURN m.id AS msg, count(liker) AS score ORDER BY score DESC, msg ASC LIMIT 20

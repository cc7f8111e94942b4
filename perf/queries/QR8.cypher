MATCH (p:Person)-[:Knows]->(f:Person)-[:Likes]->(m:Post) RETURN f.id AS id UNION ALL MATCH (p:Person)-[:Knows]->(f:Person)-[:HasInterest]->(t:Tag) RETURN f.id AS id

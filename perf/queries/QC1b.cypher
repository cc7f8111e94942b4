MATCH (a:Person)-[:Knows]->(b:Person), (b)-[:Likes]->(m:Post|Comment), (a)-[:Likes]->(m) RETURN count(*) AS cnt

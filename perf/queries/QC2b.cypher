MATCH (a:Person)-[:Likes]->(m:Post|Comment), (m)-[:HasCreator]->(b:Person), (b)-[:Knows]->(c:Person), (a)-[:Knows]->(c) RETURN count(*) AS cnt

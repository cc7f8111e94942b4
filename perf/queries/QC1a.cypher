MATCH (a:Person)-[:Knows]->(b:Person), (b)-[:Knows]->(c:Person), (a)-[:Knows]->(c) RETURN count(*) AS cnt

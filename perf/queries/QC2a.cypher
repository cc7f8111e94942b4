MATCH (a:Person)-[:Knows]->(b:Person), (b)-[:Knows]->(c:Person), (c)-[:Knows]->(d:Person), (a)-[:Knows]->(d) RETURN count(*) AS cnt

MATCH (a:Person)-[:Knows]->(b:Person), (a)-[:Knows]->(c:Person), (b)-[:Knows]->(c), (m:Post)-[:HasCreator]->(a) RETURN a.id AS person, count(m) AS msgs ORDER BY msgs DESC, person ASC LIMIT 20

MATCH (p:Person)-[:HasInterest]->(t:Tag), (p)-[:Knows]->(f:Person)-[:HasInterest]->(t) RETURN t.name AS tag, count(*) AS pairs ORDER BY pairs DESC, tag ASC LIMIT 20

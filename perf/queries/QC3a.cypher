MATCH (a:Person)-[:Knows]->(b:Person)-[:Knows]->(c:Person)-[:Knows]->(d:Person)-[:IsLocatedIn]->(e:Place) WHERE e.name = 'Brazil' RETURN count(*) AS cnt

MATCH (a:Person)-[:Knows]->(b:Person), (b)-[:Knows]->(c:Person), (a)-[:Knows]->(c), (a)-[:IsLocatedIn]->(pl:Place) WHERE pl.name = 'China' RETURN count(*) AS triangles

MATCH (p:Person)-[:Knows]->(f:Person)-[:IsLocatedIn]->(c:Place) WHERE c.name = 'China' RETURN count(*) AS cnt

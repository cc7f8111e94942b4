MATCH (p:Person)-[:Knows]->(f:Person) MATCH (f)-[:IsLocatedIn]->(c:Place) WHERE c.name = 'Kenya' RETURN count(*) AS cnt

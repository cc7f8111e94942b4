MATCH (p:Person)-[:Knows]->(f:Person)-[:IsLocatedIn]->(c:Place) WHERE p.id = $id AND c.name = 'China' RETURN f.id AS friend, count(*) AS cnt ORDER BY cnt DESC, friend ASC LIMIT 20

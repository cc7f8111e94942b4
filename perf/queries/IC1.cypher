MATCH (p:Person)-[:Knows]->(f:Person) WHERE p.id = $id RETURN f.firstName AS name, f.id AS id ORDER BY name ASC, id ASC LIMIT 20

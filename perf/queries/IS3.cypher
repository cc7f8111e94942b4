MATCH (p:Person)-[:Knows]->(f:Person) WHERE p.id = $id RETURN f.id AS friend, f.firstName AS firstName, f.lastName AS lastName ORDER BY friend ASC, firstName ASC, lastName ASC

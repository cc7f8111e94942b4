MATCH (p:Person)-[:Knows]->(f:Person)-[:WorkAt]->(o:Organisation) RETURN p.id AS id UNION ALL MATCH (p:Person)-[:Knows]->(f:Person)-[:StudyAt]->(o:Organisation) RETURN p.id AS id

MATCH (fo:Forum)-[:HasMember]->(p:Person)-[:Knows]->(f:Person) RETURN fo.title AS forum, count(*) AS cnt ORDER BY cnt DESC, forum ASC LIMIT 10

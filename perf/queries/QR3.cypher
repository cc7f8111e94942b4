MATCH (p:Person)-[:Knows]->(f:Person), (m:Post)-[:HasCreator]->(f), (m)-[:HasTag]->(t:Tag) RETURN count(*) AS cnt

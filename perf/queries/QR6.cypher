MATCH (m:Post)-[:HasCreator]->(p:Person) MATCH (p)-[:Knows]->(f:Person) MATCH (f)-[:IsLocatedIn]->(c:Place) RETURN count(*) AS cnt

MATCH (a:Person)-[:Likes]->(m:Post|Comment)-[:HasCreator]->(b:Person)-[:Knows]->(c:Person)-[:IsLocatedIn]->(e:Place) RETURN count(*) AS cnt

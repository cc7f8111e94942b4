MATCH (a)-[:Likes]->(b)-[:HasCreator]->(c), (b)-[:HasTag]->(d) RETURN count(*) AS cnt

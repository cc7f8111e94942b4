MATCH (a)-[:Knows]->(b)-[:WorkAt]->(c), (c)-[:IsLocatedIn]->(d) RETURN count(*) AS cnt

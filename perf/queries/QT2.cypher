MATCH (a)-[:HasMember]->(b)-[:Knows]->(c), (c)-[:IsLocatedIn]->(d) WHERE d.name = 'China' RETURN count(*) AS cnt

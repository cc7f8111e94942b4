MATCH (a)-[:ContainerOf]->(b)-[:HasTag]->(c) RETURN count(*) AS cnt

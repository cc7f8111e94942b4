MATCH (p:Person)-[:HasInterest]->(t:Tag), (m:Post)-[:HasTag]->(t) RETURN t.name AS tag, count(*) AS score ORDER BY score DESC, tag ASC LIMIT 20

MATCH (m:Post)-[:HasTag]->(t:Tag) WHERE m.creationDate > 12000 RETURN t.name AS tag, count(m) AS cnt ORDER BY cnt DESC, tag ASC LIMIT 20

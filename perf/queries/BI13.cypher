MATCH (c:Place)<-[:IsLocatedIn]-(p:Person), (m:Comment)-[:HasCreator]->(p) WHERE c.name = 'Japan' RETURN p.id AS zombie, count(m) AS msgs ORDER BY msgs ASC, zombie ASC LIMIT 20

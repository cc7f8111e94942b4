MATCH (fo:Forum)-[:HasMember]->(p:Person)-[:IsLocatedIn]->(c:Place) WHERE c.name = 'India' RETURN fo.title AS forum, count(p) AS members ORDER BY members DESC, forum ASC LIMIT 20

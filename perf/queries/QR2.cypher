MATCH (m:Post)-[:HasCreator]->(p:Person)-[:IsLocatedIn]->(c:Place) WHERE c.name = 'Chile' AND m.length > 200 RETURN count(*) AS cnt

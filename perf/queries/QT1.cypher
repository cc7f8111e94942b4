MATCH (a)-[:HasCreator]->(b), (a)-[:ReplyOf]->(c) RETURN count(*) AS cnt

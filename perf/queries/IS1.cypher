MATCH (p:Person) WHERE p.id = $id RETURN p.id AS id, p.firstName AS firstName, p.lastName AS lastName, p.birthday AS birthday, p.creationDate AS creationDate

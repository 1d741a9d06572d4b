SELECT r1.a AS o0, r1.b AS o1, r2.a AS o2, r2.c AS o3 FROM r1 LEFT OUTER JOIN r2 ON r1.b = r2.a WHERE r2.c IS NULL AND r1.a >= 1

package exec

// codes.go is the workload: the ten statements PTLDB sends, as text. Nine are
// the paper's Codes 1–4, with positional parameters in place of the inline s,
// g, t, k values; the tenth is the journey witness of Code 1. Table names and
// the bucket width are printf verbs filled in at statement-build time. Each
// variant the paper derives by "choosing between lines" is spelled out as its
// own constant. fuse.go recognizes exactly these texts, so a change here is a
// change to what fuses.

// Code 1 — vertex-to-vertex queries. %[1]s = lout table, %[2]s = lin
// table. $1 = s, $2 = g, then the timestamps.
const (
	SQLV2VEA = `
WITH outp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[1]s WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[2]s WHERE v=$2)
SELECT MIN(inp.ta)
FROM outp, inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td
  AND outp.td>=$3`

	SQLV2VLD = `
WITH outp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[1]s WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[2]s WHERE v=$2)
SELECT MAX(outp.td)
FROM outp, inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td
  AND inp.ta<=$3`

	SQLV2VSD = `
WITH outp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[1]s WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[2]s WHERE v=$2)
SELECT MIN(inp.ta-outp.td)
FROM outp, inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td
  AND outp.td>=$3
  AND inp.ta<=$4`

	// SQLV2VEAWitness extends the EA variant to return the winning tuple pair
	// instead of only the aggregate: the hub, the out-tuple and the in-tuple
	// realizing the earliest arrival — of those the latest departure, then the
	// total order over the remaining columns, so the row is unique. No row
	// when no journey exists.
	SQLV2VEAWitness = `
WITH outp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[1]s WHERE v=$1),
inp AS
  (SELECT UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
   FROM %[2]s WHERE v=$2)
SELECT outp.hub, outp.td, outp.ta, inp.td, inp.ta
FROM outp, inp
WHERE outp.hub=inp.hub AND outp.ta<=inp.td
  AND outp.td>=$3
ORDER BY inp.ta, outp.td DESC, outp.hub, outp.ta, inp.td
LIMIT 1`
)

// Code 2 — naive kNN. %[1]s = naive table, %[2]s = lout table. $1 = q, $2 = t, $3 = k (EA);
// $1 = q, $2 = t, $3 = k (LD, with t bounding arrivals).
const (
	SQLKNNNaiveEA = `
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v AS v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
      FROM %[2]s
      WHERE v=$1) n1a
   WHERE td >=$2)
SELECT v2, MIN(n2.ta)
FROM n1,
  (SELECT hub, td, UNNEST(vs[1:$3]) AS v2, UNNEST(tas[1:$3]) AS ta
   FROM %[1]s) n2
WHERE n1.hub=n2.hub
  AND n2.td>=n1.ta
GROUP BY v2
ORDER BY MIN(n2.ta), v2
LIMIT $3`

	// The LD analogue the paper benchmarks in Figure 3 but does not print:
	// the departure from q is maximized subject to arriving by $2.
	SQLKNNNaiveLD = `
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v AS v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
      FROM %[2]s
      WHERE v=$1) n1a)
SELECT v2, MAX(n1.td)
FROM n1,
  (SELECT hub, td, UNNEST(vs[1:$3]) AS v2, UNNEST(tas[1:$3]) AS ta
   FROM %[1]s) n2
WHERE n1.hub=n2.hub
  AND n2.td>=n1.ta
  AND n2.ta<=$2
GROUP BY v2
ORDER BY MAX(n1.td) DESC, v2
LIMIT $3`
)

// Code 3 — optimized EA-kNN and EA-OTM. %[1]s = knn_ea/otm_ea table,
// %[2]d = bucket width, %[3]s = lout table. $1 = q, $2 = t, $3 = k (kNN only).
const (
	SQLKNNEA = `
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
      FROM %[3]s
      WHERE v=$1) n1a
   WHERE td >=$2),
    n1b AS
  (SELECT n1bb.*, n1.ta AS n1_ta, n1.td AS n1_td
   FROM %[1]s n1bb, n1
   WHERE n1bb.hub=n1.hub
     AND n1bb.dephour=FLOOR(n1.ta/%[2]d.0))
SELECT v2, MIN(ta)
FROM (
      (SELECT v2, MIN(n3.ta) AS ta
       FROM
          (SELECT UNNEST(tas[1:$3]) AS ta, UNNEST(vs[1:$3]) AS v2
           FROM n1b) n3
       GROUP BY v2
       ORDER BY MIN(n3.ta), v2
       LIMIT $3)
   UNION
      (SELECT n2.v2, MIN(n2.ta) AS ta
       FROM
          (SELECT n1_ta, UNNEST(tds_exp) AS td, UNNEST(vs_exp) AS v2, UNNEST(tas_exp) AS ta
           FROM n1b) n2
       WHERE n1_ta <= n2.td
       GROUP BY n2.v2
       ORDER BY MIN(n2.ta), v2
       LIMIT $3)) S53
GROUP BY v2
ORDER BY MIN(ta), v2
LIMIT $3`

	SQLOTMEA = `
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
      FROM %[3]s
      WHERE v=$1) n1a
   WHERE td >=$2),
    n1b AS
  (SELECT n1bb.*, n1.ta AS n1_ta, n1.td AS n1_td
   FROM %[1]s n1bb, n1
   WHERE n1bb.hub=n1.hub
     AND n1bb.dephour=FLOOR(n1.ta/%[2]d.0))
SELECT v2, MIN(ta)
FROM (
      (SELECT v2, MIN(n3.ta) AS ta
       FROM
          (SELECT UNNEST(tas) AS ta, UNNEST(vs) AS v2
           FROM n1b) n3
       GROUP BY v2
       ORDER BY MIN(n3.ta), v2)
   UNION
      (SELECT n2.v2, MIN(n2.ta) AS ta
       FROM
          (SELECT n1_ta, UNNEST(tds_exp) AS td, UNNEST(vs_exp) AS v2, UNNEST(tas_exp) AS ta
           FROM n1b) n2
       WHERE n1_ta <= n2.td
       GROUP BY n2.v2
       ORDER BY MIN(n2.ta), v2)) S53
GROUP BY v2
ORDER BY MIN(ta), v2`
)

// Code 4 — optimized LD-kNN and LD-OTM. %[1]s = knn_ld/otm_ld table,
// %[2]d = bucket width, %[3]s = lout table. $1 = q, $2 = t, $3 = k (kNN only).
const (
	SQLKNNLD = `
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
      FROM %[3]s
      WHERE v=$1) n1a),
    n1b AS
  (SELECT n1bb.*, n1.ta AS n1_ta, n1.td AS n1_td
   FROM %[1]s n1bb, n1
   WHERE n1bb.hub=n1.hub
     AND n1bb.arrhour=FLOOR($2/%[2]d.0))
SELECT v2, MAX(td)
FROM (
      (SELECT v2, MAX(n3.n1_td) AS td
       FROM
          (SELECT n1_td, n1_ta, UNNEST(tds[1:$3]) AS td, UNNEST(vs[1:$3]) AS v2
           FROM n1b) n3
       WHERE n3.td>=n1_ta
       GROUP BY v2
       ORDER BY MAX(n3.n1_td) DESC, v2
       LIMIT $3)
   UNION
      (SELECT n2.v2, MAX(n2.n1_td) AS td
       FROM
          (SELECT n1_td, n1_ta, UNNEST(tds_exp) AS td, UNNEST(vs_exp) AS v2, UNNEST(tas_exp) AS ta
           FROM n1b) n2
       WHERE n2.td>=n1_ta
         AND n2.ta<=$2
       GROUP BY n2.v2
       ORDER BY MAX(n2.n1_td) DESC, v2
       LIMIT $3)) S53
GROUP BY v2
ORDER BY MAX(td) DESC, v2
LIMIT $3`

	SQLOTMLD = `
WITH n1 AS
  (SELECT v, hub, td, ta
   FROM
     (SELECT v, UNNEST(hubs) AS hub, UNNEST(tds) AS td, UNNEST(tas) AS ta
      FROM %[3]s
      WHERE v=$1) n1a),
    n1b AS
  (SELECT n1bb.*, n1.ta AS n1_ta, n1.td AS n1_td
   FROM %[1]s n1bb, n1
   WHERE n1bb.hub=n1.hub
     AND n1bb.arrhour=FLOOR($2/%[2]d.0))
SELECT v2, MAX(td)
FROM (
      (SELECT v2, MAX(n3.n1_td) AS td
       FROM
          (SELECT n1_td, n1_ta, UNNEST(tds) AS td, UNNEST(vs) AS v2
           FROM n1b) n3
       WHERE n3.td>=n1_ta
       GROUP BY v2
       ORDER BY MAX(n3.n1_td) DESC, v2)
   UNION
      (SELECT n2.v2, MAX(n2.n1_td) AS td
       FROM
          (SELECT n1_td, n1_ta, UNNEST(tds_exp) AS td, UNNEST(vs_exp) AS v2, UNNEST(tas_exp) AS ta
           FROM n1b) n2
       WHERE n2.td>=n1_ta
         AND n2.ta<=$2
       GROUP BY n2.v2
       ORDER BY MAX(n2.n1_td) DESC, v2)) S53
GROUP BY v2
ORDER BY MAX(td) DESC, v2`
)

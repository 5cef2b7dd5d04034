-- Smoke script for the ovcsql REPL (piped through stdin by
-- tools/sql_smoke.sh under several flag sets). Exercises table generation,
-- EXPLAIN, and a few executed statements; the script greps the output for
-- the planner shapes the SQL front end is supposed to surface: an elided
-- sort over a pre-sorted coded table, a merge join, and (at
-- --parallelism > 1) the exchange-parallel shapes.
.gen lineitem(orderkey,qty,price) rows=20000 keys=1 distinct=500 seed=1
.gen orders(orderkey,custkey) rows=5000 keys=1 distinct=500 seed=2 sorted
.gen events(site,day,visitor) rows=10000 keys=3 distinct=16 seed=3 sorted
.tables

-- Pre-sorted coded table + ORDER BY on its key prefix: the sort is elided.
EXPLAIN SELECT site, day, visitor FROM events ORDER BY site, day;

-- Join with the sorted orders table as the probe: the planner sorts the
-- unsorted lineitem side once and merge joins, reusing the probe's order;
-- the aggregation streams over the join's order; the final ORDER BY is
-- elided.
EXPLAIN SELECT o.orderkey, COUNT(*) AS n, SUM(l.qty) AS total
  FROM orders o INNER JOIN lineitem l ON o.orderkey = l.orderkey
  GROUP BY o.orderkey ORDER BY o.orderkey;

-- EXPLAIN ANALYZE executes the same join + aggregation and annotates
-- every plan line with rows=est/actual, wall time, and the
-- comparison/spill counters (the smoke script greps for the est/actual
-- annotations).
EXPLAIN ANALYZE SELECT o.orderkey, COUNT(*) AS n, SUM(l.qty) AS total
  FROM orders o INNER JOIN lineitem l ON o.orderkey = l.orderkey
  GROUP BY o.orderkey ORDER BY o.orderkey;

-- The paper's web-analytics shape: distinct folded into the sort, count
-- streamed over the coded result.
SELECT site, COUNT(DISTINCT visitor) AS visitors
  FROM events GROUP BY site ORDER BY site LIMIT 5;

-- Set operation over two generated tables.
.gen t1(a,b) rows=5000 keys=2 distinct=64 seed=4
.gen t2(a,b) rows=5000 keys=2 distinct=64 seed=5
SELECT a, b FROM t1 INTERSECT SELECT a, b FROM t2 LIMIT 3;

-- Join of two unsorted tables whose build key repeats about 78 times
-- (5000 rows over 64 values of t1.a): under a 64-row hash budget and the
-- partition fallback, no hash split brings a key's partition under the
-- budget, so that partition finishes by sort+merge.
SELECT t.a, COUNT(*) AS n FROM lineitem l INNER JOIN t1 t
  ON l.orderkey = t.a GROUP BY t.a ORDER BY t.a LIMIT 3;
.counters

package repro.baselines

import repro.{Oracle, SparkSpec, TestUtil}
import repro.core.{LocalStats, SetRec}
import repro.data.Datasets
import org.apache.spark.sql.DataFrame
import scala.collection.mutable

class AllPairsSparkSpec extends SparkSpec {

  /** Ground-truth join in SQL (DuckDB side of the oracle): pairs of records
    * sharing tokens whose Jaccard similarity reaches λ.
    */
  private def truthSql(lambda: Double): String =
    s"""
       |WITH tok AS (SELECT CAST(id AS BIGINT) AS id, token FROM tokens),
       |     sz  AS (SELECT CAST(id AS BIGINT) AS id, CAST(sz AS DOUBLE) AS sz FROM sizes),
       |     ov  AS (
       |       SELECT a.id AS id1, b.id AS id2, COUNT(*) AS inter
       |       FROM tok a JOIN tok b ON a.token = b.token AND a.id < b.id
       |       GROUP BY a.id, b.id
       |     )
       |SELECT ov.id1 AS id1, ov.id2 AS id2
       |FROM ov JOIN sz s1 ON s1.id = ov.id1 JOIN sz s2 ON s2.id = ov.id2
       |WHERE CAST(ov.inter AS DOUBLE) / (s1.sz + s2.sz - ov.inter) >= $lambda - 1e-12
       |""".stripMargin

  private def tokensDf(recs: Seq[SetRec]): DataFrame = {
    import spark.implicits._
    recs.flatMap(r => r.tokens.map(t => (r.id, t))).toDF("id", "token")
  }

  private def sizesDf(recs: Seq[SetRec]): DataFrame = {
    import spark.implicits._
    recs.map(r => (r.id, r.tokens.length)).toDF("id", "sz")
  }

  for ((name, scale, lambda) <- Seq(("DBLP", 0.03, 0.5), ("UNIFORM005", 0.04, 0.5),
                                    ("BMS-POS", 0.03, 0.7), ("TOKENS10K", 0.05, 0.8),
                                    ("AOL", 0.03, 0.6)))
    test(s"oracle: AllPairsSpark equals the DuckDB ground-truth join on $name at λ=$lambda") {
      val recs = Datasets.byName(name).gen(scale, seed = 101).toIndexedSeq
      val res = AllPairsSpark.selfJoin(spark, AllPairsSpark.toDF(spark, recs.toSeq), lambda)
      val pairsDf = res.pairs.select("id1", "id2")
      Oracle.assertEquivalent(pairsDf, truthSql(lambda),
        "tokens" -> tokensDf(recs), "sizes" -> sizesDf(recs))
      res.pairs.unpersist(blocking = false)
    }

  for (lambda <- Seq(0.5, 0.7, 0.9))
    test(s"AllPairsSpark equals AllPairsLocal at λ=$lambda") {
      val recs = TestUtil.randomRecords(250, 12, 60, seed = 102, spread = 6)
      val (dist, _, _) = AllPairsSpark.selfJoinCollect(spark, recs, lambda)
      val local = AllPairsLocal.selfJoin(recs, lambda)
      assert(dist.keySet == local.keySet)
      for ((k, v) <- dist) assert(math.abs(v - local(k)) < 1e-12)
    }

  test("counters: pre-candidates >= candidates >= results") {
    val recs = TestUtil.randomRecords(300, 12, 50, seed = 103, spread = 4)
    val (pairs, pre, cand) = AllPairsSpark.selfJoinCollect(spark, recs, 0.5)
    assert(pre >= cand && cand >= pairs.size)
    assert(pairs.nonEmpty, "dense universe should produce results")
  }

  for (lambda <- Seq(0.5, 0.8))
    test(s"counters keep their definition under the (freq, token) order at λ=$lambda") {
      // pre: per probing-prefix token, the pairs sharing it that pass the
      // size filter; cand: the distinct such pairs.
      val recs = TestUtil.randomRecords(300, 10, 80, seed = 105, spread = 5)
      val ranks = AllPairsLocal.tokenRanks(recs)
      val byToken = mutable.HashMap.empty[Int, mutable.ArrayBuffer[(Long, Int)]]
      for (r <- recs) {
        val ts = r.tokens.map(ranks).sorted
        for (t <- ts.take(AllPairsLocal.probingPrefixLength(ts.length, lambda)))
          byToken.getOrElseUpdate(t, mutable.ArrayBuffer.empty) += ((r.id, ts.length))
      }
      var pre = 0L
      val cand = mutable.HashSet.empty[(Long, Long)]
      for (members <- byToken.values; (a, sa) <- members; (b, sb) <- members
           if a < b && math.max(sa, sb) * lambda <= math.min(sa, sb) + 1e-9) {
        pre += 1
        cand += ((a, b))
      }
      val (_, gotPre, gotCand) = AllPairsSpark.selfJoinCollect(spark, recs, lambda)
      assert((gotPre, gotCand) == ((pre, cand.size.toLong)))
    }

  test("orderKey orders like (freq, token) for every Int token") {
    val tokens = Seq(Int.MinValue, Int.MinValue + 1, -2, -1, 0, 1, 2, Int.MaxValue - 1, Int.MaxValue)
    val pairs = for (f <- Seq(0, 1, 2, 1000, Int.MaxValue); t <- tokens) yield (f, t)
    val byKey = pairs.sortBy { case (f, t) => AllPairsSpark.orderKey(f, t) }
    assert(byKey == pairs.sorted)
    assert(pairs.map { case (f, t) => AllPairsSpark.orderKey(f, t) }.distinct.size == pairs.size)
  }

  test("the number of shuffle partitions changes no pair, similarity or counter") {
    val recs = TestUtil.randomRecords(300, 12, 40, seed = 106, spread = 4)
    val key = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(key)
    try {
      val runs = Seq("1", "64").map { n =>
        spark.conf.set(key, n)
        AllPairsSpark.selfJoinCollect(spark, recs, 0.5)
      }
      assert(runs(0)._1.nonEmpty)
      assert(runs(0) == runs(1))
    } finally spark.conf.set(key, saved)
  }

  test("selfJoinCollect leaves no persisted RDDs behind") {
    val recs = TestUtil.randomRecords(200, 12, 60, seed = 107, spread = 4)
    val before = spark.sparkContext.getPersistentRDDs.keySet
    assert(AllPairsSpark.selfJoinCollect(spark, recs, 0.5)._1.nonEmpty)
    assert(spark.sparkContext.getPersistentRDDs.keySet.subsetOf(before))
  }

  test("a record with no tokens joins nothing, on both engines") {
    val recs = IndexedSeq(SetRec(1, Array.empty[Int]), SetRec(2, Array(1, 2)), SetRec(3, Array(1, 2)))
    val expected = Map((2L, 3L) -> 1.0)
    assert(AllPairsLocal.selfJoin(recs, 0.5) == expected)
    assert(AllPairsSpark.selfJoinCollect(spark, recs, 0.5)._1 == expected)
  }

  test("zero and one records give no pairs and zero counters, on both engines") {
    for (recs <- Seq(IndexedSeq.empty[SetRec], IndexedSeq(SetRec(0, Array(1, 2))))) {
      val stats = new LocalStats
      assert(AllPairsLocal.selfJoin(recs, 0.5, stats).isEmpty)
      assert((stats.pre, stats.cand, stats.res) == ((0L, 0L, 0L)))
      assert(AllPairsSpark.selfJoinCollect(spark, recs, 0.5) == ((Map.empty, 0L, 0L)))
    }
  }

  test("exactness on a dataset with heavy duplicates") {
    val base = TestUtil.randomRecords(50, 10, 40, seed = 104)
    val recs = base ++ base.map(r => SetRec(r.id + 1000, r.tokens))
    val (dist, _, _) = AllPairsSpark.selfJoinCollect(spark, recs, 0.9)
    val truth = TestUtil.bruteTruth(recs, 0.9)
    assert(dist.keySet == truth.keySet)
  }

  test("duplicate ids are rejected") {
    val recs = IndexedSeq(SetRec(1, Array(1, 2)), SetRec(2, Array(3, 4)), SetRec(1, Array(1, 3)))
    intercept[IllegalArgumentException](AllPairsSpark.selfJoinCollect(spark, recs, 0.5))
  }
}

package repro.core

import repro.{SparkSpec, TestUtil}
import repro.data.Datasets

class CPSJoinSparkSpec extends SparkSpec {

  private val p = CPSParams(t = 64, ell = 4, limit = 40, eps = 0.1, delta = 0.05, reps = 6, seed = 99)

  test("distributed CPSJoin equals the local implementation exactly (same seeds)") {
    // All node randomness derives from the 64-bit node seed, so the Spark
    // level-synchronous evaluation must explore the same tree and report the
    // same pairs as the local depth-first recursion.
    val recs = TestUtil.randomRecords(400, 15, 100, seed = 91, spread = 5)
    val local = CPSJoinLocal.selfJoinRaw(recs, 0.5, p)
    val dist = CPSJoinSpark.selfJoin(spark, recs, 0.5, p)
    assert(dist.keySet == local.keySet,
      s"missing=${local.keySet.diff(dist.keySet).take(3)} extra=${dist.keySet.diff(local.keySet).take(3)}")
  }

  for ((name, lambda) <- Seq(("DBLP", 0.5), ("NETFLIX", 0.7), ("UNIFORM005", 0.5), ("TOKENS10K", 0.8)))
    test(s"distributed equals local on $name at λ=$lambda") {
      val recs = Datasets.byName(name).gen(scale = 0.16, seed = 92).toIndexedSeq
      val local = CPSJoinLocal.selfJoinRaw(recs, lambda, p)
      val dist = CPSJoinSpark.selfJoin(spark, recs, lambda, p)
      assert(dist.keySet == local.keySet)
    }

  test("recall >= 0.8 and precision = 1 against ground truth (10 reps)") {
    val recs = Datasets.byName("BMS-POS").gen(scale = 0.2, seed = 93).toIndexedSeq
    val truth = TestUtil.bruteTruth(recs, 0.5)
    val res = CPSJoinSpark.selfJoin(spark, recs, 0.5, p.copy(reps = 10))
    TestUtil.assertPerfectPrecision(res, recs, 0.5)
    assert(TestUtil.recall(res.keySet, truth.keySet) >= 0.8)
  }

  test("accumulator-backed stats are populated") {
    val recs = TestUtil.randomRecords(300, 15, 80, seed = 94, spread = 4)
    val (stats, read) = AccumStats.create(spark, "cps-test")
    CPSJoinSpark.selfJoin(spark, recs, 0.5, p, stats)
    val (pre, cand, res) = read()
    assert(pre > 0 && pre >= cand && cand >= res)
  }

  test("incremental repetitions: running reps in two batches equals one batch") {
    val recs = TestUtil.randomRecords(300, 15, 90, seed = 95, spread = 4)
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    try {
      val join = new CPSJoinSpark(spark, bc, 0.5, p)
      val oneBatch = join.run(0 until 4)
      val twoBatches = join.run(0 until 2) ++ join.run(2 until 4)
      assert(oneBatch.keySet == twoBatches.keySet)
    } finally bc.destroy()
  }

  test("accumulator counters equal the local counters (same seeds)") {
    // A level recomputed because it was not persisted before its action
    // would add its counts twice.
    val recs = TestUtil.randomRecords(400, 15, 100, seed = 97, spread = 5)
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    try {
      val embedded = bc.value.values.toIndexedSeq.sortBy(_.id)
      val local = new LocalStats
      for (r <- 0 until 4) CPSJoinLocal.runRep(embedded, 0.5, p, r, local, (_, _, _) => ())
      val (sink, read) = AccumStats.create(spark, "cps-counters")
      new CPSJoinSpark(spark, bc, 0.5, p, sink).run(0 until 4)
      assert(read() == ((local.pre, local.cand, local.res)))
    } finally bc.destroy()
  }

  test("run leaves no persisted RDDs behind, and no repetitions give no pairs") {
    val recs = Datasets.byName("DBLP").gen(scale = 0.16, seed = 98).toIndexedSeq
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    try {
      val join = new CPSJoinSpark(spark, bc, 0.5, p)
      val before = spark.sparkContext.getPersistentRDDs.keySet
      assert(join.run(0 until 3).nonEmpty)
      assert(spark.sparkContext.getPersistentRDDs.keySet.subsetOf(before))
      assert(join.run(Seq.empty).isEmpty)
    } finally bc.destroy()
  }

  test("empty and single-record inputs yield no pairs") {
    assert(CPSJoinSpark.selfJoin(spark, IndexedSeq(SetRec(0, Array(1, 2))), 0.5, p).isEmpty)
  }

  test("maxDepth cap forces termination and keeps strong pairs") {
    val recs = TestUtil.randomRecords(200, 12, 60, seed = 96)
    val res = CPSJoinSpark.selfJoin(spark, recs, 0.5, p.copy(maxDepth = 2, reps = 2))
    val strong = TestUtil.bruteTruth(recs, 0.7).keySet
    // With the cap the tree is cut at depth 2 and every live bucket is brute
    // forced, so well-above-threshold pairs must all be present.
    assert(strong.subsetOf(res.keySet))
  }

  test("a record with no tokens takes part in no pair") {
    val recs = IndexedSeq(SetRec(1, Array.empty[Int]), SetRec(2, Array(1, 2)), SetRec(3, Array(1, 2)))
    assert(CPSJoinSpark.selfJoin(spark, recs, 0.5, p) == Map((2L, 3L) -> 1.0))
  }

  test("duplicate ids are rejected") {
    val recs = IndexedSeq(SetRec(1, Array(1, 2)), SetRec(2, Array(3, 4)), SetRec(1, Array(1, 3)))
    intercept[IllegalArgumentException](CPSJoinSpark.selfJoin(spark, recs, 0.5, p))
  }
}

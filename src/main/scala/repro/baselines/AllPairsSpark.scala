package repro.baselines

import org.apache.spark.rdd.RDD
import org.apache.spark.sql.{DataFrame, SparkSession}
import repro.core.{CPSJoinSpark, SetRec}
import scala.collection.mutable

/** Distributed exact ALLPAIRS self-join: prefix filtering over pair RDDs
  * (the prefix-grouping dataflow of Vernica, Carey & Li, SIGMOD 2010).
  *
  * One Spark job with three shuffles, each over `CPSJoinSpark.bucketPartitioner`:
  *  1. `(token, id)` rows grouped by token. The group size is the token's
  *     frequency, and the token is re-keyed as a `Long` that sorts like
  *     `(freq, token)`, so ascending key is the rarest-first global order
  *     without a global rank;
  *  2. `(id, key)` rows grouped by id: each record becomes its sorted key
  *     array (a bijection of its tokens, so similarities are unchanged);
  *  3. each record sent to the groups of its probing-prefix keys (prefix
  *     length |x| − ⌈λ|x|⌉ + 1: any pair with J ≥ λ shares a probing-prefix
  *     key). In a group, every pair passing the size filter
  *     λ·max(|x|,|y|) ≤ min(|x|,|y|) is a pre-candidate, and it is verified
  *     (exact Jaccard) only in the group of its first common probing-prefix
  *     key, so each candidate is verified exactly once.
  *
  * Table IV counters: pre-candidates (pairs per shared probing-prefix key)
  * and candidates (distinct pairs verified). Each partition's counts travel
  * in its output row and are summed on the driver, so a retried task cannot
  * count twice. Records with no tokens take part in no pair.
  */
object AllPairsSpark {

  final case class JoinResult(pairs: DataFrame, preCandidates: Long, candidates: Long)

  /** Output of one prefix-group partition: its result pairs and counters. */
  private final case class PartOut(pairs: Array[(Long, Long, Double)], pre: Long, cand: Long)

  /** Input records as a DataFrame (id: long, tokens: array<int>). */
  def toDF(spark: SparkSession, recs: Seq[SetRec]): DataFrame = {
    import spark.implicits._
    recs.map(r => (r.id, r.tokens.toSeq)).toDF("id", "tokens")
  }

  /** Exact self-join of (id, tokens) records at threshold `lambda`; the
    * pairs are a DataFrame (id1 < id2, sim) over the collected result.
    */
  def selfJoin(spark: SparkSession, records: DataFrame, lambda: Double): JoinResult = {
    val recs = records.select("id", "tokens").rdd.map(r => SetRec(r.getLong(0), r.getSeq[Int](1).toArray))
    val (pairs, pre, cand) = run(spark, recs, lambda)
    val rows = pairs.iterator.map { case ((a, b), s) => (a, b, s) }.toSeq
    JoinResult(spark.createDataFrame(rows).toDF("id1", "id2", "sim"), pre, cand)
  }

  /** Self-join raw records (distinct ids) and collect the result pairs to the driver. */
  def selfJoinCollect(spark: SparkSession, recs: scala.collection.IndexedSeq[SetRec],
                      lambda: Double): (Map[(Long, Long), Double], Long, Long) = {
    SetRec.requireDistinctIds(recs)
    run(spark, spark.sparkContext.parallelize(recs.toSeq), lambda)
  }

  /** The join itself: result pairs (id1 < id2) with their similarity, the
    * pre-candidate count and the candidate count.
    */
  private def run(spark: SparkSession, recs: RDD[SetRec],
                  lambda: Double): (Map[(Long, Long), Double], Long, Long) = {
    require(lambda > 0 && lambda < 1)
    val part = CPSJoinSpark.bucketPartitioner(spark)
    val keyed = recs
      .flatMap(r => r.tokens.iterator.map(t => (t, r.id)))
      .groupByKey(part)
      .flatMap { case (t, ids) =>
        val key = orderKey(ids.size, t)
        ids.iterator.map(id => (id, key))
      }
      .groupByKey(part)
      .map { case (id, keys) => (id, keys.toArray.sorted) }
    val outs = keyed
      .flatMap { case (id, keys) =>
        val pp = AllPairsLocal.probingPrefixLength(keys.length, lambda)
        keys.iterator.take(pp).map(k => (k, (id, keys)))
      }
      .groupByKey(part)
      .mapPartitions(groups => Iterator(joinGroups(groups, lambda)))
      .collect()
    (outs.iterator.flatMap(_.pairs).map { case (a, b, s) => (a, b) -> s }.toMap,
     outs.iterator.map(_.pre).sum, outs.iterator.map(_.cand).sum)
  }

  /** A `Long` that orders like `(freq, token)` for every `freq ≥ 0` and every
    * `Int` token: the frequency in the high word, the token with its sign bit
    * flipped (signed order as unsigned order) in the low word.
    */
  def orderKey(freq: Int, token: Int): Long =
    (freq.toLong << 32) | ((token ^ Int.MinValue).toLong & 0xffffffffL)

  /** Pairs and counters of one partition's prefix groups. */
  private def joinGroups(groups: Iterator[(Long, Iterable[(Long, Array[Long])])],
                         lambda: Double): PartOut = {
    val out = mutable.ArrayBuffer.empty[(Long, Long, Double)]
    var pre = 0L
    var cand = 0L
    for ((key, members) <- groups) {
      val recs = members.toArray
      var i = 0
      while (i < recs.length) {
        var j = i + 1
        while (j < recs.length) {
          val (x, y) = if (recs(i)._1 < recs(j)._1) (recs(i), recs(j)) else (recs(j), recs(i))
          val sx = x._2.length
          val sy = y._2.length
          if (math.max(sx, sy) * lambda <= math.min(sx, sy) + 1e-9) {
            pre += 1
            if (firstCommonKey(x._2, y._2) == key) {
              cand += 1
              val inter = intersectionSize(x._2, y._2)
              val sim = inter.toDouble / (sx + sy - inter)
              if (sim >= lambda - 1e-12) out += ((x._1, y._1, sim))
            }
          }
          j += 1
        }
        i += 1
      }
    }
    PartOut(out.toArray, pre, cand)
  }

  /** Smallest key two sorted key arrays share. Called on two records of one
    * prefix group, which share the group's key, so it is their first common
    * probing-prefix key: a prefix holds a record's smallest keys.
    */
  private def firstCommonKey(x: Array[Long], y: Array[Long]): Long = {
    var i = 0; var j = 0
    while (x(i) != y(j)) if (x(i) < y(j)) i += 1 else j += 1
    x(i)
  }

  /** |x ∩ y| of two sorted key arrays (sorted-merge). */
  private def intersectionSize(x: Array[Long], y: Array[Long]): Int = {
    var i = 0; var j = 0; var c = 0
    while (i < x.length && j < y.length) {
      if (x(i) == y(j)) { c += 1; i += 1; j += 1 }
      else if (x(i) < y(j)) i += 1
      else j += 1
    }
    c
  }
}

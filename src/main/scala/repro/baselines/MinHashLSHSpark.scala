package repro.baselines

import org.apache.spark.broadcast.Broadcast
import org.apache.spark.sql.SparkSession
import repro.core._
import repro.util.Hashing
import scala.collection.mutable

/** Distributed MinHash LSH self-join (paper Algorithm 3 as a Spark dataflow).
  *
  * Each repetition computes one bucket key per record from k sampled minhash
  * coordinates; the keys are computed on the executors from the sorted ids
  * and the broadcast payload. Repetitions are batched into a single shuffle
  * by prefixing the bucket key with the repetition index. The `(key, id)`
  * rows are grouped with the same pair-RDD bucket shuffle as `CPSJoinSpark`,
  * and every bucket runs the local engine's bucket step
  * (`MinHashLSHLocal.bucketStep`), so a run is one Spark job. The key length
  * k is chosen on the driver with the cost-based rule of §V-B
  * (`MinHashLSHLocal.chooseK`).
  */
final class MinHashLSHSpark(
    spark: SparkSession,
    payload: Broadcast[Map[Long, EmbeddedRec]],
    lambda: Double,
    k: Int,
    p: CPSParams,
    stats: StatsSink = NullStats,
) extends Serializable {

  /** Run the given repetitions; returns deduplicated verified pairs. */
  def run(reps: Seq[Int]): Map[(Long, Long), Double] = {
    val bc = payload
    val lam = lambda
    val params = p
    val sink = stats
    val repCoords = reps.map(r => (r.toLong + 1, MinHashLSHLocal.repCoordinates(params.t, k, params.seed, r))).toArray
    val pairs = CPSJoinSpark.parallelIds(spark, bc)
      .flatMap { id =>
        val mh = bc.value(id).mh
        repCoords.iterator.map { case (tag, coords) => (Hashing.combine(tag, MinHashLSHLocal.bucketKey(mh, coords)), id) }
      }
      .groupByKey(CPSJoinSpark.bucketPartitioner(spark))
      .flatMap { case (_, ids) =>
        val out = mutable.ArrayBuffer.empty[(Long, Long, Double)]
        MinHashLSHLocal.bucketStep(ids.iterator.map(bc.value(_)).toIndexedSeq, lam, params, sink,
          (a, b, s) => { out += ((a, b, s)); () })
        out.iterator
      }
      .collect()
    pairs.iterator.map(t => (t._1, t._2) -> t._3).toMap
  }
}

object MinHashLSHSpark {
  /** One-shot self-join at recall target φ with worst-case repetition count. */
  def selfJoin(spark: SparkSession, recs: scala.collection.IndexedSeq[SetRec], lambda: Double,
               phi: Double = 0.9, p: CPSParams = CPSParams(),
               stats: StatsSink = NullStats): Map[(Long, Long), Double] = {
    val bc = CPSJoinSpark.broadcastPayload(spark, recs, p)
    try {
      val embedded = bc.value.values.toIndexedSeq
      if (embedded.length < 2) return Map.empty
      val k = MinHashLSHLocal.chooseK(embedded, lambda, phi, p.seed)
      val reps = MinHashLSHLocal.repetitionsFor(phi, lambda, k)
      new MinHashLSHSpark(spark, bc, lambda, k, p, stats).run(0 until reps)
    } finally bc.destroy()
  }
}

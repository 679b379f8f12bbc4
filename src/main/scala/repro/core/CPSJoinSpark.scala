package repro.core

import org.apache.spark.HashPartitioner
import org.apache.spark.broadcast.Broadcast
import org.apache.spark.rdd.RDD
import org.apache.spark.sql.SparkSession
import org.apache.spark.storage.StorageLevel
import scala.collection.mutable

/** One output row of a Chosen Path tree node. */
sealed trait NodeOut extends Serializable

/** Record `id` is live in the child bucket `path` at the next level. */
final case class Live(path: Long, id: Long) extends NodeOut

/** Verified result pair (`a < b`) with its exact Jaccard similarity. */
final case class Verified(a: Long, b: Long, sim: Double) extends NodeOut

/** Distributed CPSJoin as a level-synchronous Spark dataflow.
  *
  * The Chosen Path recursion tree is evaluated breadth-first: level k is an
  * `RDD[(path, id)]` of live (tree-node, record) memberships. Each level
  * shuffles its rows by bucket (`groupByKey` over a `HashPartitioner` with
  * `spark.sql.shuffle.partitions` partitions) and runs the node step that
  * the local recursion runs (`CPSJoinLocal.nodeStep`: the depth cap,
  * BRUTEFORCE with sketch-based average-similarity estimation and
  * sketch-filtered verification, and the split on sampled minhash
  * coordinates) on each group. Its emitted pairs become `Verified` rows and
  * the members of its children become `Live` rows of the next level.
  *
  * Each level's output is persisted, and one `count` of its live rows both
  * materialises it and decides whether another level runs. Verified pairs
  * stay on the executors until every level is done; one final job unions
  * them, deduplicates them and collects the result. A run of d levels is
  * therefore d + 1 Spark jobs. Root rows are built on the executors from the
  * sorted ids and the per-repetition root seeds.
  *
  * All node randomness is derived deterministically from the 64-bit node
  * path (seed), and the node step does not depend on the order in which a
  * bucket's rows arrive, so for equal parameters this implementation explores
  * exactly the same tree, and reports exactly the same pairs and counters, as
  * `CPSJoinLocal.runRep` (a property the tests assert).
  *
  * Record payloads (tokens, minhash vector, sketch) are broadcast once; the
  * shuffled rows are two longs each.
  */
final class CPSJoinSpark(
    spark: SparkSession,
    payload: Broadcast[Map[Long, EmbeddedRec]],
    lambda: Double,
    p: CPSParams,
    stats: StatsSink = NullStats,
) extends Serializable {

  /** Run repetitions `reps` (tree roots) and return deduplicated result
    * pairs (id1 < id2) with exact Jaccard similarity.
    */
  def run(reps: Seq[Int]): Map[(Long, Long), Double] = {
    if (reps.isEmpty) return Map.empty
    val bc = payload
    val lam = lambda
    val params = p
    val sink = stats
    val rootSeeds = reps.map(CPSJoinLocal.rootSeed(params, _)).toArray
    val part = CPSJoinSpark.bucketPartitioner(spark)
    // The map side of each shuffle reads many small partitions; one task per
    // core instead of one per partition saves most of its scheduling cost.
    val slots = spark.sparkContext.defaultParallelism
    var level: RDD[(Long, Long)] =
      CPSJoinSpark.parallelIds(spark, bc).flatMap(id => rootSeeds.iterator.map(s => (s, id)))
    val outs = mutable.ArrayBuffer.empty[RDD[NodeOut]]
    try {
      var live = true
      while (live) {
        val depth = outs.length
        val out = level.coalesce(slots).groupByKey(part)
          .flatMap { case (path, ids) =>
            val verified = mutable.ArrayBuffer.empty[NodeOut]
            val children = CPSJoinLocal.nodeStep(ids.iterator.map(bc.value(_)).toIndexedSeq, lam, params,
              path, depth, sink, (a, b, s) => { verified += Verified(a, b, s); () })
            verified.iterator ++ children.flatMap { case (seed, child) => child.iterator.map(x => Live(seed, x.id)) }
          }
          .persist(StorageLevel.MEMORY_AND_DISK)
        outs += out
        level = out.collect { case Live(path, id) => (path, id) }
        live = level.count() > 0
      }
      spark.sparkContext.union(outs.toSeq).coalesce(slots)
        .collect { case Verified(a, b, s) => ((a, b), s) }
        .reduceByKey(part, (s, _) => s)
        .collect()
        .toMap
    } finally outs.foreach(_.unpersist(blocking = false))
  }
}

object CPSJoinSpark {

  /** Embed all records on the driver and broadcast the payload dictionary.
    * Preprocessing is shared by CPSJoin and MinHash LSH (paper: preprocessing
    * is done once per dataset and excluded from join times).
    */
  def broadcastPayload(spark: SparkSession, recs: scala.collection.IndexedSeq[SetRec],
                       p: CPSParams): Broadcast[Map[Long, EmbeddedRec]] = {
    val hasher = new MinHasher(p.t, p.ell, p.seed)
    val embedded = EmbeddedRec.embedAll(recs, hasher)
    spark.sparkContext.broadcast(embedded.iterator.map(r => r.id -> r).toMap)
  }

  /** Partitioner of the bucket shuffles, sized by `spark.sql.shuffle.partitions`. */
  def bucketPartitioner(spark: SparkSession): HashPartitioner =
    new HashPartitioner(spark.conf.get("spark.sql.shuffle.partitions").toInt)

  /** The payload's record ids in ascending order, as an RDD. */
  def parallelIds(spark: SparkSession, payload: Broadcast[Map[Long, EmbeddedRec]]): RDD[Long] =
    spark.sparkContext.parallelize(payload.value.keys.toArray.sorted.toSeq)

  /** Convenience one-shot self-join with `p.reps` repetitions. */
  def selfJoin(spark: SparkSession, recs: scala.collection.IndexedSeq[SetRec], lambda: Double,
               p: CPSParams = CPSParams(), stats: StatsSink = NullStats): Map[(Long, Long), Double] = {
    val bc = broadcastPayload(spark, recs, p)
    try new CPSJoinSpark(spark, bc, lambda, p, stats).run(0 until p.reps)
    finally bc.destroy()
  }
}

package org.apache.spark

/** Listener events reach listeners asynchronously. The bus can only be
  * drained from inside the `org.apache.spark` package, so the benchmark
  * reaches it through this one accessor before it reads its counts.
  */
object PerfbenchBus {
  def drain(sc: SparkContext): Unit = sc.listenerBus.waitUntilEmpty()
}

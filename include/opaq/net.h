#ifndef OPAQ_INCLUDE_OPAQ_NET_H_
#define OPAQ_INCLUDE_OPAQ_NET_H_

/// Public networking surface: the data-node subsystem that serves datasets
/// over TCP behind the same `RunProvider`/`RunSource` seam every local
/// backend uses.
///
///  - `NodeServer` (net/node_server.h) — export local `TypedDataFile` /
///    `StripedDataFile` datasets on a port; thread per connection, bounded
///    reads, error frames instead of crashes. `opaq_noded` is its CLI.
///  - `RemoteRunProvider<K>` (net/remote_source.h) — the range-streaming
///    client backend: pipelined request-ahead run streaming that overlaps
///    network latency with compute exactly as async disk I/O does.
///    `RemoteExtentProvider<K>` (net/remote_extent_source.h) is its
///    sibling, streaming packed extents decoded client-side.
///  - `RemoteComputeClient<K>` (net/remote_compute.h) — the compute
///    client: pushes the paper's sample phase (`SampleRuns`) and §4 filter
///    scan (`ExactPass`) to the node, shipping O(s) results instead of
///    O(n) raw runs. Most users reach both through
///    `Source<K>::OpenRemote("host:port/dataset")`, which computes
///    node-side unless `NodeClientOptions::node_compute` is off.
///  - `QueryServer` (net/query_server.h) / `QueryClient<K>`
///    (net/query_client.h) — the query-serving layer: sketch once at
///    startup, then answer millions of batched quantile / rank /
///    equi-depth requests off the in-memory sample list, with exact
///    requests coalesced into one shared §4 pass per round and epoch-style
///    background refresh. `opaq_queryd` is its CLI.
///  - The wire protocol (net/wire.h, payload codecs in
///    net/wire_compute.h, net/wire_query.h, and net/wire_stats.h — the
///    stats-snapshot ops every frame server answers): length-prefixed
///    frames of the one wire version this build speaks, CRC-protected
///    payloads, sticky error frames. UNAUTHENTICATED — for
///    trusted/loopback networks only (see README "Distributed mode" and
///    "Query serving").

#include "net/client.h"
#include "net/export_spec.h"
#include "net/frame_io.h"
#include "net/frame_server.h"
#include "net/node_compute.h"
#include "net/node_server.h"
#include "net/query_client.h"
#include "net/query_server.h"
#include "net/remote_compute.h"
#include "net/remote_extent_source.h"
#include "net/remote_source.h"
#include "net/socket.h"
#include "net/wire.h"
#include "net/wire_compute.h"
#include "net/wire_query.h"
#include "net/wire_stats.h"

#endif  // OPAQ_INCLUDE_OPAQ_NET_H_

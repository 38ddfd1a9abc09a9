(** The `serve` workload (DESIGN.md §4k): a multi-process network
    server under load.  An accept loop recvfroms client hellos on a
    well-known port and forks one worker per connection; a load
    generator forks one client per connection, each issuing a stream of
    requests with mixed payload sizes, periodic sends to a dead port
    (the error path) and optionally slowed pacing.  Every datagram
    round-trip crosses the recording boundary, so this is the
    connection-sharding (Conn_track / Shard) test bed. *)

type params = {
  conns : int; (** concurrent connections (one worker + one client each) *)
  requests : int; (** data requests per connection *)
  server_work : int; (** per-request worker compute *)
  client_work : int; (** per-reply client compute *)
  slow_clients : int; (** the first N clients nanosleep before each send *)
  err_every : int; (** every Nth request first hits a dead port *)
}

val default : params

val make : ?params:params -> unit -> Workload.t

(** The `sambatest` workload (paper §4.1): a UDP echo server and test
    client, everything recorded.  Blocking recvfrom calls make this the
    desched machinery's (§3.3) natural habitat. *)

type params = {
  echoes : int;
  payload : int;
  server_work : int; (* per-request processing *)
  client_work : int;
}

val make : ?params:params -> unit -> Workload.t

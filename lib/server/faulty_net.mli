(** Deterministic fault injection for socket I/O — {!Sqp_storage.Faulty_io}'s
    sibling for the wire.

    A {e plan} wraps a connected descriptor's {!Protocol.io} record so
    that every frame read and write can suffer [EINTR], short transfers,
    injected latency, or a mid-frame connection reset — reproducibly.
    Plans are a pure function of their seed: each {!wrap} (one
    connection) gets its own logical-op clock and its own deterministic
    stream derived from (seed, connection index), so any failing
    schedule replays exactly, and a client that reconnects after a kill
    faces the same hostile network afresh.

    A reset shuts the socket down both ways (the peer sees it too) and
    raises [ECONNRESET] from reads / [EPIPE] from writes — exactly what
    a dropped TCP connection looks like, which is what the client's
    retry loop and the server's session accounting are tested against.

    The chaos suite ([test/test_chaos.ml]) threads these plans under
    both sides of a real loopback server, and the cluster suite
    ([test/test_cluster.ml]) under a router's clients and its shard
    connections. *)

type plan

val none : plan
(** Plain passthrough: {!wrap} returns {!Protocol.io_of_fd}'s record. *)

val seeded :
  ?p_eintr:float ->
  ?p_short:float ->
  ?p_delay:float ->
  ?delay_s:float ->
  ?p_reset:float ->
  seed:int ->
  unit ->
  plan
(** A deterministic random plan.  Each logical operation (one [io.read]
    or [io.write] call) independently suffers: a connection reset
    (probability [p_reset]), [EINTR] ([p_eintr]), an injected delay of
    [delay_s] seconds ([p_delay]), or a shortened transfer ([p_short]).
    All probabilities default to 0. *)

val kill_after : int -> plan
(** Kill the connection at the [n]-th (0-based) logical operation of
    each wrapped descriptor: the socket is shut down and every further
    operation raises.  Models a peer or middlebox with a deterministic
    attention span. *)

val wrap : plan -> Unix.file_descr -> Protocol.io
(** Thread the plan under a connected descriptor.  Call once per
    connection (each call advances the plan's connection index). *)

(** Memory checksums (paper §6.2): deterministic digests of a tracee's
    application-visible memory, taken periodically while recording and
    verified during replay so divergence is caught close to its root
    cause. *)

val space : Addr_space.t -> int
(** Digest of an address space: included regions in address order,
    bytes in address order. *)

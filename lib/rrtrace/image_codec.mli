(** Codec serialization for executable images cloned into a trace.

    Keeps trace files self-describing and independent of the OCaml
    runtime's Marshal layout: every instruction is a tagged varint
    record, so a trace written by one build loads in any other. *)

val put_insn : Codec.sink -> Insn.t -> unit
val get_insn : Codec.source -> Insn.t
(** Raises {!Codec.Corrupt} on unknown tags, and on a register field or
    [Reg] operand outside 0 to [Insn.num_regs - 1]. *)

val put_image : Codec.sink -> Image.t -> unit
val get_image : Codec.source -> Image.t

val check_insn : Codec.source -> unit
val check_image : Codec.source -> unit
(** Read what {!get_insn} and {!get_image} read, raising where they
    raise, and build nothing: a loader checks an image at open and
    decodes it at first use. *)

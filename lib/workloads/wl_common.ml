(* Shared pieces for workload program generators. *)

module K = Kernel
module G = Guest

let ( @. ) = List.append

(* Deterministic pseudo-file contents: repetitive enough to compress but
   not trivially (a mix of text-like runs and varying bytes).  Each run
   is a character repeated 16 to 63 times, then 32 random bits as eight
   lowercase hex digits; the last run is cut at [len].  The bytes are
   written where they end up, with no intermediate strings. *)
let file_contents ~seed ~len =
  let e = Entropy.create seed in
  let b = Bytes.create len in
  let pos = ref 0 in
  while !pos < len do
    let run = 16 + Entropy.int e 48 in
    let c = Char.chr (32 + Entropy.int e 90) in
    Bytes.fill b !pos (min run (len - !pos)) c;
    pos := !pos + run;
    let v = Entropy.bits e land 0xffffffff in
    for i = 0 to 7 do
      if !pos + i < len then
        Bytes.set b (!pos + i) "0123456789abcdef".[(v lsr (28 - (4 * i))) land 15]
    done;
    pos := !pos + 8
  done;
  b

let install_file k ~path ~seed ~len =
  let reg = Vfs.create_file (K.vfs k) path in
  ignore (Vfs.write (K.vfs k) reg ~off:0 (file_contents ~seed ~len))

(* Install a table of 8-byte string pointers at a fresh data address;
   returns the table's address. *)
let path_table b paths =
  let addrs = List.map (fun p -> G.str b p) paths in
  let tbl = G.bss b (8 * List.length paths) in
  (* Initialized via data blob: build the little-endian encoding. *)
  let bytes = Bytes.create (8 * List.length addrs) in
  List.iteri
    (fun i a -> Bytes.set_int64_le bytes (8 * i) (Int64.of_int a))
    addrs;
  let data_addr = G.blob b (Bytes.to_string bytes) in
  (* Copy loop at program start would be needed if blob and bss differ;
     return the initialized blob directly instead. *)
  ignore tbl;
  data_addr

(* Exit with r0's (possibly negative) value clamped for visibility. *)
let exit_with_r0 = [ Asm.movr 1 0 ] @. G.sc Sysno.exit_group [ G.reg 1 ]

(* Guard: exit_group(70 + marker) when r0 < 0. *)
let die_if_error b marker =
  let ok = G.fresh_label b "ok" in
  [ Asm.jcc Insn.Ge 0 (G.imm 0) ok ]
  @. G.sys_exit_group (70 + marker)
  @. [ Asm.label ok ]

(* CRC-32 (IEEE), slicing-by-8.  Values are plain OCaml ints in
   [0, 2^32); the tables are built once on first use.

   Row 0 of [tables] is the classic bytewise table; row k maps a byte to
   its CRC contribution k positions further back, so one step folds
   eight input bytes with eight independent lookups instead of eight
   dependent ones.  The tail (fewer than eight bytes) goes bytewise
   through row 0. *)

let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         c := if !c land 1 = 1 then 0xedb88320 lxor (!c lsr 1) else !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xff)
       done
     done;
     t)

let sub ?(crc = 0) s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Crc32.sub: range out of bounds";
  let t = Lazy.force tables in
  (* Bounds were checked above, and the running value stays below 2^32,
     so every table index is below 8 * 256. *)
  let tb k i = Array.unsafe_get t ((k * 256) + i) in
  let byte i = Char.code (String.unsafe_get s i) in
  let c = ref ((crc lxor 0xffffffff) land 0xffffffff) in
  let i = ref pos in
  let stop8 = pos + len - 8 in
  while !i <= stop8 do
    let p = !i and x = !c in
    c :=
      tb 7 ((x lxor byte p) land 0xff)
      lxor tb 6 (((x lsr 8) lxor byte (p + 1)) land 0xff)
      lxor tb 5 (((x lsr 16) lxor byte (p + 2)) land 0xff)
      lxor tb 4 ((x lsr 24) lxor byte (p + 3))
      lxor tb 3 (byte (p + 4))
      lxor tb 2 (byte (p + 5))
      lxor tb 1 (byte (p + 6))
      lxor tb 0 (byte (p + 7));
    i := p + 8
  done;
  for p = !i to pos + len - 1 do
    c := tb 0 ((!c lxor byte p) land 0xff) lxor (!c lsr 8)
  done;
  !c lxor 0xffffffff

let string ?crc s = sub ?crc s ~pos:0 ~len:(String.length s)

(* LSB-first bit streams, as DEFLATE uses.

   The writer takes a whole code per call.  The reader buffers up to 56
   bits, so a table decoder can [peek] at the next code's worth of bits
   and [consume] only the code's length; bits past the end of the stream
   peek as zeros, and consuming one raises [Truncated]. *)

type writer = {
  buf : Buffer.t;
  mutable acc : int; (* pending bits, LSB first; fewer than 8 between calls *)
  mutable nbits : int;
}

let writer () = { buf = Buffer.create 4096; acc = 0; nbits = 0 }

let put_bits w v n =
  w.acc <- w.acc lor ((v land ((1 lsl n) - 1)) lsl w.nbits);
  w.nbits <- w.nbits + n;
  while w.nbits >= 8 do
    Buffer.add_char w.buf (Char.unsafe_chr (w.acc land 0xff));
    w.acc <- w.acc lsr 8;
    w.nbits <- w.nbits - 8
  done

(* Flush the final partial byte and return the stream. *)
let finish w =
  if w.nbits > 0 then begin
    Buffer.add_char w.buf (Char.chr (w.acc land 0xff));
    w.acc <- 0;
    w.nbits <- 0
  end;
  Buffer.contents w.buf

type reader = {
  src : string;
  mutable pos : int;
  limit : int; (* end of the stream in [src] *)
  mutable racc : int;
  mutable rnbits : int;
}

exception Truncated

let reader ?len src ~pos =
  let limit = match len with Some n -> pos + n | None -> String.length src in
  if pos < 0 || pos > limit || limit > String.length src then
    invalid_arg "Bitio.reader";
  { src; pos; limit; racc = 0; rnbits = 0 }

let peek r n =
  if r.rnbits < n then begin
    while r.rnbits <= 48 && r.pos < r.limit do
      r.racc <-
        r.racc lor (Char.code (String.unsafe_get r.src r.pos) lsl r.rnbits);
      r.pos <- r.pos + 1;
      r.rnbits <- r.rnbits + 8
    done
  end;
  r.racc land ((1 lsl n) - 1)

let consume r n =
  if n > r.rnbits then raise Truncated;
  r.racc <- r.racc lsr n;
  r.rnbits <- r.rnbits - n

let get_bits r n =
  let v = peek r n in
  consume r n;
  v

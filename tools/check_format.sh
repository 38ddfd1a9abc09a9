#!/usr/bin/env bash
# Source hygiene check, used in place of ocamlformat (not available in
# the build image): no tabs, no trailing whitespace, and newline at EOF
# for every OCaml source.  With no arguments, checks every .ml/.mli
# under the current directory.
set -u

status=0

check_file() {
  local f="$1"
  # Skip dune-generated empty interfaces (executables_implicit_empty_intf).
  if head -c 26 "$f" | grep -q 'Auto-generated by Dune'; then
    return
  fi
  if grep -qP '\t' "$f"; then
    echo "format: $f contains tab characters" >&2
    status=1
  fi
  if grep -qE ' +$' "$f"; then
    echo "format: $f has trailing whitespace" >&2
    status=1
  fi
  if [ -s "$f" ] && [ -n "$(tail -c 1 "$f")" ]; then
    echo "format: $f does not end with a newline" >&2
    status=1
  fi
  # Library code must not write diagnostics straight to stderr: route
  # them through Telemetry (metrics/events) or Diagnostics (dumps).
  case "$f" in
  *lib/*)
    if grep -qE 'Printf\.eprintf' "$f"; then
      echo "format: $f uses Printf.eprintf; use Telemetry or Diagnostics" >&2
      status=1
    fi
    ;;
  esac
  # Host networking is confined to the gdb stub's socket transport (and
  # the CLI): the simulated kernel must never open real sockets, so a
  # listening-socket call anywhere else is a layering leak.
  case "$f" in
  *lib/gdbstub/gdb_sock.ml | *lib/gdbstub/gdb_sock.mli | *bin/*) ;;
  *)
    if grep -qE 'Unix\.(socket|bind|listen|accept)' "$f"; then
      echo "format: $f opens host sockets; only lib/gdbstub/gdb_sock.ml may" >&2
      status=1
    fi
    ;;
  esac
  # The program is single-domain (rr's supervisor runs one tracee
  # thread at a time), so Telemetry and Timeline keep plain mutable
  # state and take no locks.  Nothing may spawn a domain, tests
  # included, and library code may not reach for domain, atomic or
  # mutex primitives that would only guard sharing that cannot happen.
  if grep -qE 'Domain\.spawn' "$f"; then
    echo "format: $f calls Domain.spawn; the program is single-domain" >&2
    status=1
  fi
  case "$f" in
  *lib/*)
    if grep -qE '\b(Domain|Atomic|Mutex)\.' "$f"; then
      echo "format: $f uses Domain, Atomic or Mutex; lib/ is single-domain" >&2
      status=1
    fi
    ;;
  esac
  # Timeline scope/instant/counter names are dotted <layer>.<verb>
  # (kern.run, trace.deflate): the first segment becomes the Chrome
  # [cat] field and the attribution ledger groups by full name, so an
  # undotted or mis-cased literal fragments the namespace.  Only
  # literal names at Timeline.* call sites are checked; computed names
  # are the caller's problem.
  bad_names=$(grep -hoE 'Timeline\.(scope|begin_scope|end_scope|instant)[^"]*"[^"]*"' "$f" 2>/dev/null \
    | grep -oE '"[^"]*"' | sort -u \
    | grep -vE '^"[a-z0-9_]+(\.[a-z0-9_-]+)+"$' || true)
  if [ -n "$bad_names" ]; then
    echo "format: $f has non-dotted timeline scope name(s): $bad_names (want <layer>.<verb>)" >&2
    status=1
  fi
  # Zero-copy invariant: the per-event encode path in lib/rrtrace
  # appends into the chunk's long-lived pending sink — allocating a
  # fresh Codec.sink () or Bytes.create per event would reintroduce
  # the copies the v2 encoder removed.  Allocation is only legitimate
  # at chunk-lifecycle sites (record/chunk payload builders, save and
  # load, the rewrite path), each marked with a `(* chunk-lifecycle *)`
  # comment on the allocating line.
  case "$f" in
  *lib/rrtrace/*.ml)
    bad_alloc=$(grep -nE 'Codec\.sink \(\)|Bytes\.create' "$f" \
      | grep -v 'chunk-lifecycle' || true)
    if [ -n "$bad_alloc" ]; then
      {
        echo "format: $f allocates an encode buffer outside a chunk-lifecycle site:"
        echo "$bad_alloc"
        echo "  (per-event encoding must reuse the chunk's pending sink;"
        echo "   mark genuine chunk-lifecycle sites with (* chunk-lifecycle *))"
      } >&2
      status=1
    fi
    ;;
  esac
  # Trace.Reader.rfind_before is the O(n) reverse scan; outside the
  # trace store and the debugger's own fallback paths, reverse searches
  # go through Debugger.Query so they hit the persistent index when one
  # is attached.
  case "$f" in
  *lib/rr/* | *lib/rrtrace/*) ;;
  *)
    if grep -qE 'rfind_before' "$f"; then
      echo "format: $f scans with Trace.Reader.rfind_before; use Debugger.Query" >&2
      status=1
    fi
    ;;
  esac
  # The text map's layout (pages of predecoded words and instructions
  # over a window) has one owner, lib/isa:
  # everything else reads guest code through Addr_space.text_get /
  # text_fold / text_fold_pages / text_page_fold / text_count, so the
  # layout can change without touching a caller.  Outside lib/isa
  # nothing reads the space's text field or a text page's word array,
  # instruction array or window fields.
  case "$f" in
  *lib/isa/*) ;;
  *)
    if grep -qE '\.(A|Addr_space)\.text\b' "$f"; then
      echo "format: $f reads the Addr_space text field; use text_get/text_fold/text_count" >&2
      status=1
    fi
    bad_page_reads=$(grep -nE '\bpage_(words|insns|base|stamp)\b' "$f" || true)
    if [ -n "$bad_page_reads" ]; then
      {
        echo "format: $f reads a text page's words, instructions or window:"
        echo "$bad_page_reads"
        echo "  (use Addr_space.text_get / text_page_fold; only lib/isa sees the layout)"
      } >&2
      status=1
    fi
    ;;
  esac
  # Process fork aliases MAP_SHARED frames, which a checkpoint must
  # not: a checkpoint that shares a frame the session keeps writing
  # reads the future.  Under lib/, only the kernel's fork(2) and lib/isa
  # itself call the plain fork; checkpoints take A.fork_checkpoint.
  case "$f" in
  *lib/isa/* | *lib/kern/kernel.ml) ;;
  *lib/*)
    if grep -qE '\b(A|Addr_space)\.fork\b' "$f"; then
      echo "format: $f calls the process fork; checkpoints use Addr_space.fork_checkpoint" >&2
      status=1
    fi
    ;;
  esac
  # Checkpoint state has one builder, lib/rr/snapshot.ml: a checkpoint
  # fork copies the frames a session writes in place, and a restored or
  # decoded space shares, fills or borrows frames and text no session
  # may write through.  Under lib/ but outside lib/isa, no other file
  # calls Addr_space.fork_checkpoint, shared_copies, fill or text_share,
  # or Mem.borrow; the rest of lib/ takes a checkpoint through Snapshot.
  case "$f" in
  *lib/isa/* | *lib/rr/snapshot.ml | *lib/rr/snapshot.mli) ;;
  *lib/*)
    if grep -qE '\b(A|Addr_space)\.(fork_checkpoint|shared_copies|fill|text_share)\b|\bMem\.borrow\b' "$f"; then
      echo "format: $f builds checkpoint state; only lib/rr/snapshot.ml may" >&2
      status=1
    fi
    ;;
  esac
  # A page the interpreter holds takes the write gate, the write
  # observer and the generation once for every write that follows in
  # the run.  Only lib/isa's Cpu.run may take that shortcut, because it
  # drops the hold before anything else can unshare the frame; anywhere
  # else every write goes through Addr_space's accessors.
  case "$f" in
  *lib/isa/*) ;;
  *)
    if grep -qE '\b(A|Addr_space)\.hold_page\b' "$f"; then
      echo "format: $f calls Addr_space.hold_page; only lib/isa's interpreter holds a page" >&2
      status=1
    fi
    ;;
  esac
  # A frame that has not been written borrows its bytes: Mem's one
  # shared zero buffer, or the very string a checkpoint blob was read
  # into, which is the trace itself.  So only lib/isa/mem.ml points a
  # frame at its bytes or writes them, behind Addr_space.writable_page,
  # the write gate that gives a frame its own bytes first.  Anywhere
  # else: no assignment to a frame's bytes, off or borrowed fields, no
  # record built with them, and no Bytes.set*/fill/blit/unsafe_set into
  # a frame's bytes.
  case "$f" in
  *lib/isa/mem.ml) ;;
  *)
    frame_id="\(?[A-Za-z0-9_.']*\.Mem\.bytes"
    frame_field='Mem\.(bytes|off|borrowed)'
    bad_frame_writes=$(grep -nE \
      -e "${frame_field}[[:space:]]*<-" \
      -e "(\{|;|with)[[:space:]]*${frame_field}[[:space:]]*=" \
      -e "Bytes\.(unsafe_)?(set|fill)[a-z0-9_]*[[:space:]]+$frame_id" \
      -e "Bytes\.(unsafe_)?blit(_string)?([[:space:]]+[^[:space:]]+){2}[[:space:]]+$frame_id" \
      "$f" || true)
    if [ -n "$bad_frame_writes" ]; then
      {
        echo "format: $f points a frame at its bytes or writes them outside lib/isa/mem.ml:"
        echo "$bad_frame_writes"
        echo "  (write guest memory through Addr_space; a frame may borrow the trace's own bytes)"
      } >&2
      status=1
    fi
    ;;
  esac
  # A space's generation moves on every change to it, which is what
  # lets Snapshot.capture reuse the checkpoint fork of a space left
  # untouched since: a change that skipped the count would leak into
  # every checkpoint that reuses the fork.  Under lib/, only
  # lib/isa/addr_space.ml changes an Addr_space.t: nowhere else an
  # assignment to its regions, mmap_cursor or generation, or a Hashtbl
  # mutator on its written_text or breakpoints.  Its page table is an
  # abstract type outside that file, so a write to it does not compile.
  case "$f" in
  *lib/isa/addr_space.ml) ;;
  *lib/*)
    space_field='\.(A|Addr_space)\.'
    bad_space_writes=$(grep -nE \
      -e "${space_field}(regions|mmap_cursor|generation)[[:space:]]*<-" \
      -e "Hashtbl\.(add|replace|remove|reset|clear|filter_map_inplace)\b[^;]*${space_field}(written_text|breakpoints)\b" \
      "$f" || true)
    if [ -n "$bad_space_writes" ]; then
      {
        echo "format: $f changes an Addr_space.t outside lib/isa/addr_space.ml:"
        echo "$bad_space_writes"
        echo "  (go through an Addr_space function, which moves the space's generation)"
      } >&2
      status=1
    fi
    ;;
  esac
  # Connection-key derivation — parsing datagram source ports out of
  # recorded frames — lives in lib/rr/conn_track.ml and nowhere else:
  # one place to get the recvfrom write-layout subtleties right.  The
  # simulated kernel (lib/kern) legitimately speaks src_port as part of
  # the datagram ABI itself.
  case "$f" in
  *lib/kern/* | *lib/rr/conn_track.ml | *lib/rr/conn_track.mli) ;;
  *)
    if grep -qE 'src_port' "$f"; then
      echo "format: $f derives connection keys; only lib/rr/conn_track.ml may" >&2
      status=1
    fi
    ;;
  esac
}

if [ "$#" -gt 0 ]; then
  files=("$@")
else
  mapfile -t files < <(find . -name '*.ml' -o -name '*.mli' | grep -v _build | sort)
fi

for f in "${files[@]}"; do
  check_file "$f"
done

exit $status

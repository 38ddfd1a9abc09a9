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
  # Reader/recorder options must be built through make_opts so the
  # clamps (jobs >= 1, readahead >= 0, ...) are never bypassed.  A bare
  # record literal starting at the [jobs] field (or a record update of
  # it) is the tell; module-qualified fields like { Wl_make.jobs = ... }
  # belong to other types and are fine.
  case "$f" in
  *lib/*) ;;
  *)
    if grep -qE '\{ *jobs *=|with +jobs *=' "$f"; then
      echo "format: $f builds an opts record literally; use make_opts" >&2
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
  # All parallelism goes through the lib/exec pool: bare Domain.spawn
  # anywhere else scatters concurrency policy (worker counts, queue
  # bounds, shutdown) across the tree.
  case "$f" in
  *lib/exec/*) ;;
  *)
    if grep -qE 'Domain\.spawn' "$f"; then
      echo "format: $f calls Domain.spawn directly; use exec's Pool" >&2
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
  bad_names=$(grep -hoE 'Timeline\.(scope|begin_scope|end_scope|instant|sample)[^"]*"[^"]*"' "$f" 2>/dev/null \
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
  # rfind_event is the deprecated O(n) reverse scan; outside the
  # debugger's own fallback paths, searches go through Debugger.Query
  # so they hit the persistent index when one is attached.
  case "$f" in
  *lib/rr/*) ;;
  *)
    if grep -qE 'rfind_event' "$f"; then
      echo "format: $f scans with rfind_event; use Debugger.Query" >&2
      status=1
    fi
    ;;
  esac
  # record_result is the deprecated spelling of Recorder.run; it only
  # survives inside lib/rr (the definition and its deprecation stanza).
  # Everything else takes the result-typed entry point by its new name.
  case "$f" in
  *lib/rr/*) ;;
  *)
    if grep -qE 'record_result' "$f"; then
      echo "format: $f calls record_result; use Recorder.run" >&2
      status=1
    fi
    ;;
  esac
  # The text map's layout (paged slots plus a one-page fetch cache) has
  # one owner, lib/isa: everything else reads guest code through
  # Addr_space.text_get / text_fold / text_count, so the layout can
  # change without touching a caller.
  case "$f" in
  *lib/isa/*) ;;
  *)
    if grep -qE '\.(A|Addr_space)\.text\b' "$f"; then
      echo "format: $f reads the Addr_space text field; use text_get/text_fold/text_count" >&2
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

(* The metric catalogue: every name the benchmark reports, with its
   unit.  BENCHMARK.json at the repository root lists the same names
   (test/test_hostbench.ml checks the two agree).  A run fills a
   [table]; [set] refuses a name outside the catalogue, and [values]
   emits every catalogue entry, so a workload cannot silently drop or
   invent a metric.  A per-layer metric a workload never touches reads
   0: the layer is idle there. *)

let end_to_end =
  [
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("sim_mips", "Minstr/s");
    ("ops_per_s", "1/s");
    ("op_ms_p50", "ms");
    ("op_ms_p90", "ms");
    ("cpu_ms_per_op", "ms");
  ]

let per_layer =
  [
    ("compiler.build_ms_p50", "ms");
    ("compiler.images", "count");
    ("session.start_ms_p50", "ms");
    ("session.advance_ms_p50", "ms");
    ("session.advance_ms_p99", "ms");
    ("machine.sb_hit_ratio", "ratio");
    ("machine.sb_compiled", "count");
    ("machine.sb_fallback", "count");
    ("machine.sb_invalidations", "count");
    ("machine.sb_speedup", "x");
    ("machine.cache_hit_ratio", "ratio");
    ("tracking.none_ms", "ms");
    ("tracking.nat_word_ms", "ms");
    ("tracking.nat_byte_ms", "ms");
    ("tracking.coproc_ms", "ms");
    ("tracking.coproc_stalls", "count");
    ("mem.loads", "count");
    ("mem.stores", "count");
    ("flowtrace.on_over_off", "x");
    ("flowtrace.events", "count");
    ("flow.jsonl_ms_p50", "ms");
    ("flow.jsonl_bytes", "bytes");
    ("hwtrace.on_over_off", "x");
    ("hwtrace.entries", "count");
    ("leak.detect_ms_p50", "ms");
    ("leak.sessions", "count");
    ("os.multiproc_ms_p50", "ms");
    ("snapshot.capture_ms_p50", "ms");
    ("snapshot.restore_ms_p50", "ms");
    ("snapshot.encode_ms_p50", "ms");
    ("snapshot.decode_ms_p50", "ms");
    ("snapshot.bytes_p50", "bytes");
    ("snapshot.parks", "count");
    ("sched.queue_wait_ms_p90", "ms");
    ("sched.slice_ms_p99", "ms");
    ("sched.busy_share", "ratio");
    ("sched.migrations", "count");
    ("protocol.parse_us_p50", "us");
    ("protocol.encode_us_p50", "us");
    ("protocol.response_bytes", "bytes");
    ("gen.late_ms_p90", "ms");
    ("gen.max_in_flight", "count");
    ("migrate.capture_ms_per_job", "ms");
    ("migrate.restore_ms_per_job", "ms");
    ("migrate.spill_ms_per_job", "ms");
    ("migrate.rewarm_ms_per_job", "ms");
    ("migrate.total_ms_per_job", "ms");
    ("self.compiler_ms_per_op", "ms");
    ("self.session_ms_per_op", "ms");
    ("self.os_ms_per_op", "ms");
    ("self.flow_ms_per_op", "ms");
    ("self.leak_ms_per_op", "ms");
    ("self.snapshot_ms_per_op", "ms");
    ("self.protocol_ms_per_op", "ms");
    ("self.bench_ms_per_op", "ms");
    ("trace.attributed_share", "ratio");
    ("trace.overhead", "x");
  ]

(* the layers whose self time the traced run reports, in table order;
   "bench" is the op span's own self time, the part no layer claims *)
let self_layers =
  [ "compiler"; "session"; "os"; "flow"; "leak"; "snapshot"; "protocol"; "bench" ]

type table = { catalogue : (string * string) list; values : (string, float) Hashtbl.t }

let table catalogue = { catalogue; values = Hashtbl.create 64 }

let set t name v =
  if not (List.mem_assoc name t.catalogue) then
    invalid_arg (Printf.sprintf "Metrics.set: %S is not in the catalogue" name);
  Hashtbl.replace t.values name v

(* every catalogue entry in order: (name, unit, value) *)
let values t =
  List.map
    (fun (name, unit) ->
      (name, unit, Option.value (Hashtbl.find_opt t.values name) ~default:0.))
    t.catalogue

(* Every metric the benchmark prints, with its unit.  [Main] emits only
   names from these tables, and the benchmark's own test checks them
   against BENCHMARK.json. *)

(* Printed by a plain run ([--trace 0]). *)
let end_to_end =
  [
    ("setup_s", "s");
    ("commit_p50_ms", "ms");
    ("commit_tail_ms", "ms");
    ("commits_per_s", "1/s");
    ("recovery_s", "s");
    ("log_bytes_per_commit", "B");
    ("peak_heap_mb", "MB");
    ("commit_success_rate", "ratio");
  ]

(* Printed by the traced run ([--trace 1]). *)
let per_layer =
  [
    ("relalg.net_effect_us", "us");
    ("relalg.net_tuples", "count");
    ("irrelevance.screen_us", "us");
    ("irrelevance.drop_ratio", "ratio");
    ("irrelevance.alloc_words_per_tuple", "words");
    ("advisor.decide_us", "us");
    ("advisor.recompute_share", "ratio");
    ("advisor.self_maintain_share", "ratio");
    ("advisor.mean_rel_err", "ratio");
    ("maintenance.eval_us", "us");
    ("maintenance.rows_evaluated", "count");
    ("maintenance.delta_per_row", "count");
    ("maintenance.view_apply_us", "us");
    ("grouped.groups_touched", "count");
    ("grouped.rescans", "count");
    ("grouped.rescan_share", "ratio");
    ("manager.cascade_us", "us");
    ("manager.unattributed_share", "ratio");
    ("journal.bytes_per_commit", "B");
    ("pool.tasks", "count");
    ("pool.steals", "count");
    ("pool.speedup_vs_1domain", "x");
    ("wal.append_us", "us");
    ("wal.fsync_ms", "ms");
    ("wal.bytes_per_record", "B");
    ("checkpoint.capture_ms", "ms");
    ("checkpoint.write_ms", "ms");
    ("checkpoint.bytes", "B");
    ("recovery.checkpoint_read_ms", "ms");
    ("recovery.replay_us_per_record", "us");
    ("gc.minor_words_per_commit", "words");
    ("gc.major_per_1k_commits", "count");
    ("obs.tracing_overhead_pct", "%");
  ]

let unit_of name =
  match List.assoc_opt name end_to_end with
  | Some u -> u
  | None -> (
    match List.assoc_opt name per_layer with
    | Some u -> u
    | None -> invalid_arg ("Metric_names.unit_of: undeclared metric " ^ name))

open Relalg

type source_input = {
  alias : string;
  old_part : Relation.t;
  delta : Delta.t option;
}

type result = {
  delta : Delta.t;
  rows_evaluated : int;
}

let input_for inputs alias =
  match List.find_opt (fun i -> String.equal i.alias alias) inputs with
  | Some i -> i
  | None ->
    invalid_arg
      (Printf.sprintf "Delta_eval.eval: missing input for alias %S" alias)

let output_schema ~(spj : Query.Spj.t) ~inputs =
  let ty_of q =
    let rec search = function
      | [] ->
        invalid_arg
          (Printf.sprintf "Delta_eval.output_schema: unknown attribute %S" q)
      | input :: rest -> (
        let s = Relation.schema input.old_part in
        match Schema.position_opt s q with
        | Some i -> Schema.ty_at s i
        | None -> search rest)
    in
    search inputs
  in
  Schema.make
    (List.map (fun (out, q) -> (out, ty_of q)) spj.Query.Spj.projection)

(* Operand relation for one source in one row, for the given part of the
   update set. *)
let operand (input : source_input) (choice : Truth_table.operand) part =
  match choice, input.delta with
  | Truth_table.Old_part, _ -> input.old_part
  | Truth_table.Delta_part, Some d -> (
    match part with
    | `Inserts -> d.Delta.inserts
    | `Deletes -> d.Delta.deletes)
  | Truth_table.Delta_part, None ->
    invalid_arg "Delta_eval: delta operand for an unmodified source"

let eval ?(order = `Greedy) ?(join_impl = `Hash) ?(reuse = false)
    ~(spj : Query.Spj.t) ~inputs () =
  (* Reorder inputs to the view's source order; with [reuse], place
     modified sources first (smallest deltas lead the shared prefixes). *)
  let ordered_inputs =
    List.map (fun s -> input_for inputs s.Query.Spj.alias) spj.Query.Spj.sources
  in
  let ordered_inputs =
    if not reuse then ordered_inputs
    else
      let modified, unmodified =
        List.partition
          (fun (i : source_input) ->
            match i.delta with
            | Some d -> not (Delta.is_empty d)
            | None -> false)
          ordered_inputs
      in
      let by_size f = List.sort (fun a b -> Int.compare (f a) (f b)) in
      by_size
        (fun (i : source_input) ->
          match i.delta with
          | Some d -> Delta.size d
          | None -> 0)
        modified
      @ by_size (fun i -> Relation.cardinal i.old_part) unmodified
  in
  let out_schema = output_schema ~spj ~inputs in
  let out = Delta.empty out_schema in
  let modified =
    Array.of_list
      (List.map
         (fun (i : source_input) ->
           match i.delta with
           | Some d -> not (Delta.is_empty d)
           | None -> false)
         ordered_inputs)
  in
  if not (Array.exists Fun.id modified) then { delta = out; rows_evaluated = 0 }
  else begin
    let rows = Truth_table.rows ~modified in
    (* One (part, sources) evaluation task per non-empty row side. *)
    let tasks =
      List.concat_map
        (fun row ->
          let side part =
            let sources =
              List.mapi
                (fun i input ->
                  (input.alias, operand input row.(i) part))
                ordered_inputs
            in
            if List.exists (fun (_, r) -> Relation.is_empty r) sources then
              None
            else Some (part, sources)
          in
          List.filter_map side [ `Inserts; `Deletes ])
        rows
    in
    let merge (part, relation) =
      match part with
      | `Inserts -> Relation.union_into ~into:out.Delta.inserts relation
      | `Deletes -> Relation.union_into ~into:out.Delta.deletes relation
    in
    let rows_evaluated = List.length tasks in
    let part_name = function `Inserts -> "inserts" | `Deletes -> "deletes" in
    if reuse then begin
      (* Shared-prefix evaluation runs all rows as one batch, so the rows
         cannot be traced individually; one span covers the batch. *)
      let results =
        Obs.Span.with_span "row"
          ~args:(fun () ->
            [ ("mode", Obs.Json.Str "reuse"); ("rows", Obs.Json.Int rows_evaluated) ])
          (fun () ->
            Resilience.Fault.point "row";
            Query.Planner.run_many ~join_impl
              ~variants:(List.map snd tasks)
              ~condition_dnf:spj.Query.Spj.condition_dnf
              ~projection:spj.Query.Spj.projection ())
      in
      List.iter2 (fun (part, _) r -> merge (part, r)) tasks results
    end
    else
      List.iteri
        (fun row_index (part, sources) ->
          let r =
            Obs.Span.with_span "row"
              ~args:(fun () ->
                [
                  ("row", Obs.Json.Int row_index);
                  ("part", Obs.Json.Str (part_name part));
                  ("operands", Obs.Json.Int (List.length sources));
                ])
              (fun () ->
                Resilience.Fault.point "row";
                Query.Planner.run ~order ~join_impl ~sources
                  ~condition_dnf:spj.Query.Spj.condition_dnf
                  ~projection:spj.Query.Spj.projection ())
          in
          merge (part, r))
        tasks;
    { delta = out; rows_evaluated }
  end

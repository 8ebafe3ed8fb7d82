(* Shadow copies of base relations, used to generate a transaction stream
   ahead of the engine.

   A shadow relation holds its tuples in a dense array plus a position
   table, so sampling k existing tuples costs O(k) and a delete is a
   swap-remove.  ([Workload.Generate.pick] shuffles the whole relation on
   every call, which would make stream generation cost more than the
   commits it feeds.)  An optional key column keeps one such bag per key
   value, for transactions pinned to one key.

   Everything is deterministic given the seed: the initial contents are
   loaded in sorted tuple order and every draw goes through one
   [Workload.Rng.t]. *)

open Relalg
module Generate = Workload.Generate
module Rng = Workload.Rng

type bag = {
  mutable items : Tuple.t array;
  mutable len : int;
  pos : (Tuple.t, int) Hashtbl.t;
}

let bag_create n =
  { items = Array.make (max n 16) [||]; len = 0; pos = Hashtbl.create (max n 16) }

let bag_mem b t = Hashtbl.mem b.pos t

let bag_add b t =
  if b.len = Array.length b.items then begin
    let bigger = Array.make (2 * b.len) [||] in
    Array.blit b.items 0 bigger 0 b.len;
    b.items <- bigger
  end;
  b.items.(b.len) <- t;
  Hashtbl.replace b.pos t b.len;
  b.len <- b.len + 1

let bag_remove b t =
  let i = Hashtbl.find b.pos t in
  let last = b.items.(b.len - 1) in
  b.items.(i) <- last;
  Hashtbl.replace b.pos last i;
  Hashtbl.remove b.pos t;
  b.items.(b.len - 1) <- [||];
  b.len <- b.len - 1

(* [n] distinct members, uniformly at random. *)
let bag_sample rng b n =
  let n = min n b.len in
  let chosen = Hashtbl.create (2 * n + 1) in
  let out = ref [] in
  while Hashtbl.length chosen < n do
    let i = Rng.int rng b.len in
    if not (Hashtbl.mem chosen i) then begin
      Hashtbl.replace chosen i ();
      out := b.items.(i) :: !out
    end
  done;
  List.rev !out

type rel = {
  name : string;
  columns : Generate.column list;
  all : bag;
  key : int option;  (** column index of [by_key] *)
  by_key : (Value.t, bag) Hashtbl.t;
}

let key_bag r v =
  match Hashtbl.find_opt r.by_key v with
  | Some b -> b
  | None ->
    let b = bag_create 16 in
    Hashtbl.replace r.by_key v b;
    b

let add r t =
  bag_add r.all t;
  Option.iter (fun k -> bag_add (key_bag r (Tuple.get t k)) t) r.key

let remove r t =
  bag_remove r.all t;
  Option.iter (fun k -> bag_remove (key_bag r (Tuple.get t k)) t) r.key

(* [of_relation ?key name columns relation] loads a shadow in sorted tuple
   order, so its layout does not depend on hash-table iteration order. *)
let of_relation ?key name columns relation =
  let r =
    {
      name;
      columns;
      all = bag_create (Relation.cardinal relation);
      key;
      by_key = Hashtbl.create 64;
    }
  in
  List.iter (fun (t, _) -> add r t) (Relation.sorted_elements relation);
  r

let mem r t = bag_mem r.all t
let sample rng r n = bag_sample rng r.all n

(* Members sharing key value [v] ([] without a key column). *)
let sample_key rng r v n =
  match Hashtbl.find_opt r.by_key v with
  | Some b -> bag_sample rng b n
  | None -> []

(* [fresh rng r n ~make] draws [n] distinct tuples absent from [r], each
   built by [make] (which may pin columns). *)
let fresh ?(make = fun rng r -> Generate.tuple rng r.columns) rng r n =
  let seen = Hashtbl.create (2 * n + 1) in
  let out = ref [] in
  let attempts = ref 0 in
  while Hashtbl.length seen < n do
    incr attempts;
    if !attempts > (100 * n) + 1000 then
      invalid_arg
        (Printf.sprintf "Shadow.fresh: no %d fresh tuples for %s" n r.name);
    let t = make rng r in
    if (not (mem r t)) && not (Hashtbl.mem seen t) then begin
      Hashtbl.replace seen t ();
      out := t :: !out
    end
  done;
  List.rev !out

(* Build the transaction deleting [deletes] and inserting [inserts] into
   [r], and advance the shadow past it. *)
let transaction r ~inserts ~deletes =
  List.iter (remove r) deletes;
  List.iter (add r) inserts;
  List.map (Transaction.delete r.name) deletes
  @ List.map (Transaction.insert r.name) inserts

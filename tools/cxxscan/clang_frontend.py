"""libclang frontend: translation-unit loading and the statement-IR walker.

python libclang is imported lazily, so the lite frontend works without it.
"""

from __future__ import annotations

import os

from .ir import REPO, Arg, CallSite, Func, Param, Stmt
from .lite import TEMPLATE_CALLS, type_base


def build_program_clang(paths, compile_commands_dir, prog, walk):
    """Parses every TU in compile_commands.json; walk(tu, prog, in_scope,
    ci) adds a TU's functions under `paths` to prog."""
    import clang.cindex as ci  # noqa: imported lazily; CI installs libclang

    index = ci.Index.create()
    try:
        cdb = ci.CompilationDatabase.fromDirectory(compile_commands_dir)
    except ci.CompilationDatabaseError:
        raise RuntimeError(
            f"no compile_commands.json under {compile_commands_dir} "
            "(configure with -DCMAKE_EXPORT_COMPILE_COMMANDS=ON)")

    wanted = {os.path.abspath(p) for p in paths}
    wanted_dirs = {p for p in wanted if os.path.isdir(p)}

    def in_scope(fname):
        if not fname:
            return False
        f = os.path.abspath(fname)
        return f in wanted or any(f.startswith(d + os.sep) for d in wanted_dirs)

    seen_tus = set()
    for cmd in cdb.getAllCompileCommands():
        src = os.path.join(cmd.directory, cmd.filename) \
            if not os.path.isabs(cmd.filename) else cmd.filename
        src = os.path.normpath(src)
        if src in seen_tus:
            continue
        seen_tus.add(src)
        cargs = [a for a in list(cmd.arguments)[1:]
                 if a not in ("-c", "-o", cmd.filename) and not a.endswith(".o")]
        try:
            tu = index.parse(src, args=cargs)
        except ci.TranslationUnitLoadError:
            continue
        walk(tu, prog, in_scope, ci)
    return prog


def build_program_clang_single(path, include_dirs, prog, walk):
    """Parses one standalone TU (fixture self-test mode)."""
    import clang.cindex as ci

    args = ["-std=c++20", "-x", "c++"]
    for d in include_dirs:
        args += ["-I", d]
    tu = ci.Index.create().parse(path, args=args)
    target = os.path.abspath(path)
    walk(tu, prog, lambda fname: fname and os.path.abspath(fname) == target, ci)
    return prog


def qualified(cursor, ci):
    parts = []
    c = cursor
    while c is not None and c.kind != ci.CursorKind.TRANSLATION_UNIT:
        if c.spelling:
            parts.append(c.spelling)
        c = c.semantic_parent
    return "::".join(reversed(parts))


def annots_of(cursor, prog, ci):
    out = set()
    for ch in cursor.get_children():
        if ch.kind == ci.CursorKind.ANNOTATE_ATTR:
            a = prog.annot_of(ch.spelling)
            if a:
                out.add(a)
    return out


def file_of(cursor):
    return cursor.location.file.name if cursor.location.file else None


# --------------------------------------------------------------------------
# Statement IR
# --------------------------------------------------------------------------

def collect_expr(node, refs, calls, ci):
    """Expression subtree -> identifier refs + calls, matching the lite
    parser: a call's receiver is its `recv`, not one of the caller's refs
    (`reserve(buf.size())` must stay filtered through size())."""
    k = node.kind
    if k == ci.CursorKind.CALL_EXPR:
        cs = CallSite(line=node.location.line)
        ref = node.referenced
        if ref is not None and ref.spelling:
            cs.chain = qualified(ref, ci).split("::")
            cs.explicit = True
        else:
            cs.chain = [node.spelling or "?"]
        if cs.name in TEMPLATE_CALLS and "[]" in node.type.spelling:
            cs.array_form = True
        children = list(node.get_children())
        args = list(node.get_arguments())
        if children and children[0] not in args:
            base_refs, base_calls = [], []
            collect_expr(children[0], base_refs, base_calls, ci)
            if base_refs:
                cs.recv = base_refs[0]
                cs.recv_path = base_refs
            calls.extend(base_calls)
        for a in args:
            arg = Arg()
            collect_expr(a, arg.refs, arg.calls, ci)
            cs.args.append(arg)
        calls.append(cs)
        return
    if k == ci.CursorKind.DECL_REF_EXPR:
        if node.spelling:
            refs.append(node.spelling)
        return
    if k == ci.CursorKind.MEMBER_REF_EXPR:
        base = list(node.get_children())
        before = len(refs)
        if base:
            collect_expr(base[0], refs, calls, ci)
        # Implicit-this member access (`ring_.push_back(...)`): the base
        # subtree is just CXXThisExpr and yields no refs — the member
        # itself is the receiver variable.
        if len(refs) == before and node.spelling:
            refs.append(node.spelling)
        return
    for ch in node.get_children():
        collect_expr(ch, refs, calls, ci)


def linearize(node, stmts, local_types, ci):
    """Function body -> statements in textual order (statement IR)."""
    K = ci.CursorKind
    k = node.kind
    if k == K.COMPOUND_STMT:
        for ch in node.get_children():
            linearize(ch, stmts, local_types, ci)
        return
    if k in (K.IF_STMT, K.WHILE_STMT, K.FOR_STMT, K.SWITCH_STMT,
             K.CXX_TRY_STMT, K.CXX_CATCH_STMT, K.DO_STMT, K.CASE_STMT,
             K.DEFAULT_STMT, K.CXX_FOR_RANGE_STMT):
        for ch in node.get_children():
            if k == K.CXX_FOR_RANGE_STMT and ch.kind == K.VAR_DECL:
                st = Stmt(line=ch.location.line, lhs=ch.spelling)
                for sub in ch.get_children():
                    collect_expr(sub, st.refs, st.calls, ci)
                stmts.append(st)
                continue
            linearize(ch, stmts, local_types, ci)
        return
    if k == K.DECL_STMT:
        for ch in node.get_children():
            if ch.kind == K.VAR_DECL:
                st = Stmt(line=ch.location.line, lhs=ch.spelling)
                st.decl_type = type_base(ch.type.spelling) or None
                if st.decl_type:
                    local_types[ch.spelling] = st.decl_type
                for sub in ch.get_children():
                    collect_expr(sub, st.refs, st.calls, ci)
                stmts.append(st)
        return
    if k == K.RETURN_STMT:
        st = Stmt(line=node.location.line, is_return=True)
        for ch in node.get_children():
            collect_expr(ch, st.refs, st.calls, ci)
        stmts.append(st)
        return
    if k in (K.BINARY_OPERATOR, K.COMPOUND_ASSIGNMENT_OPERATOR):
        kids = list(node.get_children())
        if len(kids) == 2:
            lrefs, lcalls = [], []
            collect_expr(kids[0], lrefs, lcalls, ci)
            st = Stmt(line=node.location.line)
            if lrefs:
                st.lhs = lrefs[0]
                st.lhs_is_member = len(lrefs) > 1
            st.compound = (k == K.COMPOUND_ASSIGNMENT_OPERATOR)
            collect_expr(kids[1], st.refs, st.calls, ci)
            st.calls.extend(lcalls)
            stmts.append(st)
            return
    # generic statement/expression
    st = Stmt(line=node.location.line)
    collect_expr(node, st.refs, st.calls, ci)
    if st.refs or st.calls:
        stmts.append(st)


def walk_tu(tu, prog, in_scope, ci):
    """Adds one TU's in-scope functions (statement IR) and fields to prog."""
    kinds = (ci.CursorKind.FUNCTION_DECL, ci.CursorKind.CXX_METHOD,
             ci.CursorKind.CONSTRUCTOR)
    for cur in tu.cursor.walk_preorder():
        if cur.kind not in kinds or not in_scope(file_of(cur)):
            continue
        f = Func(qname=qualified(cur, ci),
                 file=os.path.relpath(file_of(cur), REPO),
                 line=cur.location.line)
        f.annots = annots_of(cur, prog, ci)
        sp = cur.semantic_parent
        if sp is not None and sp.kind in (ci.CursorKind.CLASS_DECL,
                                          ci.CursorKind.STRUCT_DECL):
            f.cls = sp.spelling
        for pc in cur.get_arguments():
            f.params.append(Param(name=pc.spelling or None,
                                  type=type_base(pc.type.spelling) or None,
                                  annots=annots_of(pc, prog, ci)))
        body = None
        for ch in cur.get_children():
            if ch.kind == ci.CursorKind.COMPOUND_STMT:
                body = ch
        if body is not None:
            f.has_body = True
            linearize(body, f.stmts, f.local_types, ci)
            for p in f.params:
                if p.name and p.type:
                    f.local_types.setdefault(p.name, p.type)
        prog.add(f)
    for cur in tu.cursor.walk_preorder():
        if cur.kind == ci.CursorKind.FIELD_DECL and in_scope(file_of(cur)):
            cls = cur.semantic_parent.spelling
            t = type_base(cur.type.spelling)
            if cls and t:
                bounded = any(ch.kind == ci.CursorKind.ANNOTATE_ATTR
                              and ch.spelling == "globe::bounded"
                              for ch in cur.get_children())
                prog.add_field(cls, cur.spelling, t,
                               os.path.relpath(file_of(cur), REPO),
                               cur.location.line, bounded)

"""Module import resolution for ``!import("...")`` directives.

"Recently, the ability to import existing specification modules was
added, in order to simplify re-use of common functionality across
applications" (paper §III-A).  Imports resolve against user-provided
search paths first, then the bundled module directory shipped with this
package (``mpi.capi``, ``common.capi``).  Imports may nest; cycles are
rejected.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path

from repro.core.spec.ast import Assign, ImportDirective, SpecFile
from repro.core.spec.parser import parse_spec
from repro.errors import ImportResolutionError


def bundled_module_dir() -> Path:
    """Directory of the specification modules shipped with the package."""
    return Path(str(resources.files("repro.core.spec") / "modules"))


@dataclass
class ModuleResolver:
    """Load and flatten a spec with all its transitive imports."""

    search_paths: list[Path] = field(default_factory=list)

    def resolve_file(self, module: str) -> Path:
        candidates = [*self.search_paths, bundled_module_dir()]
        for base in candidates:
            path = Path(base) / module
            if path.is_file():
                return path
        raise ImportResolutionError(
            f"cannot resolve import {module!r}; searched "
            f"{[str(c) for c in candidates]}"
        )

    def flatten(self, spec: SpecFile) -> SpecFile:
        """Inline all imports: imported named instances come first.

        Imported *anonymous* statements are dropped — only named
        instances are reusable across files; the importing file keeps
        control of the pipeline entry point.
        """
        out = SpecFile()
        self._flatten_into(spec, out, loading=[], top_level=True)
        return out

    def _flatten_into(
        self,
        spec: SpecFile,
        out: SpecFile,
        *,
        loading: list[str],
        top_level: bool,
    ) -> None:
        for imp in spec.imports:
            self._load_import(imp, out, loading)
        for stmt in spec.statements:
            if top_level or isinstance(stmt, Assign):
                out.statements.append(stmt)

    def _load_import(
        self, imp: ImportDirective, out: SpecFile, loading: list[str]
    ) -> None:
        if imp.module in loading:
            chain = " -> ".join([*loading, imp.module])
            raise ImportResolutionError(f"circular import: {chain}")
        path = self.resolve_file(imp.module)
        sub = parse_spec(path.read_text())
        self._flatten_into(
            sub, out, loading=[*loading, imp.module], top_level=False
        )


def load_spec(
    source: str, *, search_paths: list[Path] | None = None
) -> SpecFile:
    """Parse a spec string and flatten its imports."""
    resolver = ModuleResolver(search_paths=list(search_paths or []))
    return resolver.flatten(parse_spec(source))


def load_spec_file(
    path: str | Path, *, search_paths: list[Path] | None = None
) -> SpecFile:
    path = Path(path)
    try:
        source = path.read_text()
    except OSError as exc:
        raise ImportResolutionError(f"cannot read spec file {path}: {exc}") from exc
    return load_spec(source, search_paths=[path.parent, *(search_paths or [])])

import html

from so3sym import svgplot


def test_escape_matches_html_escape():
    for text in ["Test angular error", "a & b < c > d", "\"quoted\" 'text'", "&amp;"]:
        assert svgplot._escape(text) == html.escape(text, quote=False)
